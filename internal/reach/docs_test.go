package reach

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docIdent   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*\*?`)
	docMake    = regexp.MustCompile(`(?:^|[\s;&|(])make\s+([a-z][a-z0-9-]*)`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):(?:[^=]|$)`)
	docSection = regexp.MustCompile(`(?m)^== .* ==$`)
	docFlag    = regexp.MustCompile(`^\[?-([a-z][a-z0-9-]*)`)
	flagDecl   = regexp.MustCompile(`\bfs\.\w+\("([^"]+)"`)
)

// codeOf returns the text of md's inline code spans and of its fenced
// blocks, one piece per line.
func codeOf(md string) (inline, fenced string) {
	var in, fe strings.Builder
	for i, block := range strings.Split(md, "```") {
		if i%2 == 1 {
			fe.WriteString(block + "\n")
			continue
		}
		for j, span := range strings.Split(block, "`") {
			if j%2 == 1 {
				in.WriteString(span + "\n")
			}
		}
	}
	return in.String(), fe.String()
}

// TestDocsNameWhatExists is the doc-rot gate: every Test…, Fuzz… or
// Benchmark… identifier README.md, DESIGN.md and EXPERIMENTS.md name (a
// trailing * makes it a prefix) is a function in some _test.go file of
// the module, every `make target` they put in code is a target of the
// Makefile, and every `== section title ==` they key a paragraph to is
// a line docs/measured_output.txt prints, and every -flag they give a
// cmd/ binary on a code line is one its main.go declares. A PR that
// renames or deletes any of the four moves the documents in the same
// commit.
func TestDocsNameWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build and coverage scratch, .git
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	golden, err := os.ReadFile(filepath.Join(root, "docs", "measured_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, title := range docSection.FindAll(golden, -1) {
		sections[string(title)] = true
	}
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{} // binary → declared flags
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		flags[bin] = map[string]bool{}
		for _, m := range flagDecl.FindAllSubmatch(src, -1) {
			flags[bin][string(m[1])] = true
		}
	}
	if len(funcs) == 0 || len(targets) == 0 || len(sections) == 0 || len(flags) == 0 {
		t.Fatalf("found %d test functions, %d make targets, %d section titles and %d binaries; the gate is reading the wrong tree",
			len(funcs), len(targets), len(sections), len(flags))
	}
	exists := func(ident string) bool {
		prefix, isPrefix := strings.CutSuffix(ident, "*")
		for _, f := range funcs {
			if f == ident || isPrefix && strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}

	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, ident := range docIdent.FindAllString(string(doc), -1) {
			if !exists(ident) {
				t.Errorf("%s names %s, which no _test.go file declares", name, ident)
			}
		}
		inline, fenced := codeOf(string(doc))
		for _, m := range docMake.FindAllStringSubmatch(inline+fenced, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not have", name, m[1])
			}
		}
		for _, title := range docSection.FindAllString(inline, -1) {
			if !sections[title] {
				t.Errorf("%s keys a section to `%s`, which docs/measured_output.txt does not print", name, title)
			}
		}
		for _, call := range invocations(inline + fenced) {
			bin, args := binaryOf(call, flags)
			for _, arg := range args {
				if m := docFlag.FindStringSubmatch(arg); m != nil && !flags[bin][m[1]] {
					t.Errorf("%s runs cmd/%s with -%s, which cmd/%s/main.go does not declare", name, bin, m[1], bin)
				}
			}
		}
	}
}

// invocations splits code lines into shell commands: at newlines, at
// |, ; and &, and before a # comment.
func invocations(code string) [][]string {
	var out [][]string
	for _, line := range strings.Split(code, "\n") {
		line, _, _ = strings.Cut(line, "#")
		for _, cmd := range strings.FieldsFunc(line, func(r rune) bool { return r == '|' || r == ';' || r == '&' }) {
			out = append(out, strings.Fields(cmd))
		}
	}
	return out
}

// binaryOf finds the cmd/ binary a command runs — named bare (queryd
// -store DIR) or by its package path (go run ./cmd/queryd) — and
// returns it with the arguments after it. A go command other than go
// run passes its flags to the toolchain, not to the binary.
func binaryOf(call []string, flags map[string]map[string]bool) (string, []string) {
	if len(call) > 1 && call[0] == "go" && call[1] != "run" {
		return "", nil
	}
	for i, field := range call {
		bin := strings.TrimPrefix(strings.TrimPrefix(field, "./"), "cmd/")
		if flags[bin] != nil && (field == bin || strings.HasSuffix(field, "cmd/"+bin)) {
			return bin, call[i+1:]
		}
	}
	return "", nil
}
