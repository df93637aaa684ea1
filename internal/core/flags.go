package core

import (
	"flag"
	"fmt"
)

// CheckWorldFlags refuses the values of the flags every binary that
// builds a world shares, by name, when they cannot mean anything: a
// negative -device-scale, -addr-scale or -as-scale, and a -workers or
// -nodes below 1. Left in, Config's defaults would silently replace
// them and the run would answer a question nobody asked. Call it after
// fs.Parse; only flags given on the command line are looked at.
func CheckWorldFlags(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if err != nil || !ok {
			return
		}
		switch f.Name {
		case "device-scale", "addr-scale", "as-scale":
			if v, ok := g.Get().(float64); ok && v < 0 {
				err = fmt.Errorf("-%s %v is negative", f.Name, v)
			}
		case "workers", "nodes":
			if v, ok := g.Get().(int); ok && v < 1 {
				err = fmt.Errorf("-%s %d is below 1", f.Name, v)
			}
		}
	})
	return err
}
