package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		CPU:   filepath.Join(dir, "cpu.out"),
		Mem:   filepath.Join(dir, "mem.out"),
		Trace: filepath.Join(dir, "trace.out"),
	}
	stop, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the profiles are non-trivial.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cfg.CPU, cfg.Mem, cfg.Trace} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestNilAndDisabled(t *testing.T) {
	var cfg *Config
	stop, err := cfg.Start()
	if err != nil || stop() != nil {
		t.Fatal("nil config must be a no-op")
	}
	empty := &Config{}
	stop, err = empty.Start()
	if err != nil || stop() != nil {
		t.Fatal("empty config must be a no-op")
	}
}
