// Package prof is the pipeline's profiling harness: one call starts
// any combination of CPU profile, execution trace, and final heap
// profile, and the returned stop function flushes them. Commands wire
// it to -cpuprofile/-memprofile/-trace flags (see Flags); `make
// profiles` runs cmd/experiments with all three.
//
// The heap profile is written after a forced GC so it reflects live
// retained memory, not transient garbage; allocation-site analysis
// uses -sample_index=alloc_objects/alloc_space on the same file.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the output files; empty fields disable that profile.
type Config struct {
	CPU   string // pprof CPU profile
	Mem   string // pprof heap profile, written at stop
	Trace string // runtime execution trace
}

// Flags registers -cpuprofile, -memprofile and -trace on fs (the
// standard flag set when nil) and returns the config they fill.
func Flags(fs *flag.FlagSet) *Config {
	if fs == nil {
		fs = flag.CommandLine
	}
	cfg := &Config{}
	fs.StringVar(&cfg.CPU, "cpuprofile", "", "write a pprof CPU profile to `file`")
	fs.StringVar(&cfg.Mem, "memprofile", "", "write a pprof heap profile to `file` on exit")
	fs.StringVar(&cfg.Trace, "trace", "", "write a runtime execution trace to `file`")
	return cfg
}

// Start begins the requested profiles. The returned stop function ends
// them and writes the heap profile; call it exactly once (defer it
// before the workload). Errors opening or starting any output abort
// the whole start with everything already begun rolled back.
func (c *Config) Start() (stop func() error, err error) {
	if c == nil {
		return func() error { return nil }, nil
	}
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if c.CPU != "" {
		if cpuF, err = os.Create(c.CPU); err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			cpuF = nil
			cleanup()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if c.Trace != "" {
		if traceF, err = os.Create(c.Trace); err != nil {
			cleanup()
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err = trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() error {
		cleanup()
		if c.Mem == "" {
			return nil
		}
		f, err := os.Create(c.Mem)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		return nil
	}, nil
}
