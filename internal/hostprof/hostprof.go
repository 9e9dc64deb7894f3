// Package hostprof gives the commands -cpuprofile and -memprofile:
// pprof profiles of where the simulator's host CPU and memory go. They
// are written beside the command's outputs, never into them, so every
// deterministic artifact is byte-equal with and without them.
package hostprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; an empty path disables that
// profile.
type Flags struct{ cpu, mem *string }

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file"),
		mem: fs.String("memprofile", "", "write a pprof heap profile (allocations included) to this file at exit"),
	}
}

// Start begins the CPU profile if -cpuprofile is set. The returned stop
// ends it and writes the heap profile if -memprofile is set. Defer stop
// with the address of the command's error result: it reports a failed
// profile write there unless the command already failed.
func (f *Flags) Start() (stop func(errp *error), err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func(errp *error) {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil && *errp == nil {
				*errp = fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if *f.mem != "" {
			if err := writeHeap(*f.mem); err != nil && *errp == nil {
				*errp = fmt.Errorf("memprofile: %w", err)
			}
		}
	}, nil
}

// writeHeap writes the heap profile to path after a GC, so its in-use
// figures are current; its allocation samples cover the whole run.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
