// Package hostprof gives the commands -cpuprofile, -memprofile and
// -exectrace: pprof profiles of where the simulator's host CPU and
// memory go, and a runtime/trace execution trace of its goroutines. They
// are written beside the command's outputs, never into them, so every
// deterministic artifact is byte-equal with and without them.
package hostprof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// Flags holds the three output paths; an empty path disables that
// output.
type Flags struct{ cpu, mem, exec *string }

// Register adds -cpuprofile, -memprofile and -exectrace to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:  fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file"),
		mem:  fs.String("memprofile", "", "write a pprof heap profile (allocations included) to this file at exit"),
		exec: fs.String("exectrace", "", "write a runtime/trace execution trace of the host process to this file (go tool trace)"),
	}
}

// Start begins the CPU profile and the execution trace whose paths are
// set. The returned stop ends them and writes the heap profile if
// -memprofile is set. Defer stop with the address of the command's
// error result: it reports a failed write there unless the command
// already failed.
func (f *Flags) Start() (stop func(errp *error), err error) {
	cpu, err := begin(*f.cpu, "cpuprofile", pprof.StartCPUProfile)
	if err != nil {
		return nil, err
	}
	exec, err := begin(*f.exec, "exectrace", rtrace.Start)
	if err != nil {
		end(cpu, "cpuprofile", pprof.StopCPUProfile, &err)
		return nil, err
	}
	return func(errp *error) {
		end(cpu, "cpuprofile", pprof.StopCPUProfile, errp)
		end(exec, "exectrace", rtrace.Stop, errp)
		if *f.mem != "" {
			if err := writeHeap(*f.mem); err != nil && *errp == nil {
				*errp = fmt.Errorf("memprofile: %w", err)
			}
		}
	}, nil
}

// begin creates path and starts writing the named output to it; an
// empty path starts nothing and returns a nil file.
func begin(path, name string, start func(io.Writer) error) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	out, err := os.Create(path)
	if err == nil {
		if err = start(out); err != nil {
			out.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}

// end stops an output begun by begin and closes its file, reporting a
// failed close at errp unless *errp is already set.
func end(out *os.File, name string, stop func(), errp *error) {
	if out == nil {
		return
	}
	stop()
	if err := out.Close(); err != nil && *errp == nil {
		*errp = fmt.Errorf("%s: %w", name, err)
	}
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
