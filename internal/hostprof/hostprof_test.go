package hostprof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// run parses args into a fresh flag set, starts the outputs, does a
// little work and stops them, returning Start's and stop's errors.
func run(t *testing.T, args ...string) (startErr, stopErr error) {
	t.Helper()
	fs := flag.NewFlagSet("hostprof", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		return err, nil
	}
	sink := 0
	for i := 0; i < 1e5; i++ {
		sink += len(make([]byte, i%64))
	}
	_ = sink
	stop(&stopErr)
	return nil, stopErr
}

func TestEachFlagWritesItsFile(t *testing.T) {
	for _, name := range []string{"cpuprofile", "memprofile", "exectrace"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if startErr, stopErr := run(t, "-"+name, path); startErr != nil || stopErr != nil {
			t.Fatalf("-%s: Start error %v, stop error %v", name, startErr, stopErr)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("-%s wrote no data: %v", name, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("-%s wrote %d files, want 1", name, len(ents))
		}
	}
}

func TestNoFlagWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if startErr, stopErr := run(t); startErr != nil || stopErr != nil {
		t.Fatalf("Start error %v, stop error %v", startErr, stopErr)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("no flag set, but %d files written", len(ents))
	}
}

func TestUnwritablePathFails(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, name := range []string{"cpuprofile", "exectrace"} {
		if startErr, _ := run(t, "-"+name, missing); startErr == nil {
			t.Fatalf("-%s into a missing directory: Start returned no error", name)
		}
	}
	// The heap profile is written at stop, so stop reports its failure.
	if startErr, stopErr := run(t, "-memprofile", missing); startErr != nil || stopErr == nil {
		t.Fatalf("-memprofile into a missing directory: Start error %v, stop error %v", startErr, stopErr)
	}
	// A failed -exectrace must not leave the CPU profile running.
	dir := t.TempDir()
	if startErr, _ := run(t, "-cpuprofile", filepath.Join(dir, "cpu"), "-exectrace", missing); startErr == nil {
		t.Fatal("-exectrace into a missing directory: Start returned no error")
	}
	if startErr, stopErr := run(t, "-cpuprofile", filepath.Join(dir, "cpu2")); startErr != nil || stopErr != nil {
		t.Fatalf("CPU profile after a failed Start: Start error %v, stop error %v", startErr, stopErr)
	}
}
