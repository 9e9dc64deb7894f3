// Package apicheck holds one test: every exported function and method
// under internal/ must have a caller outside the test files.
//
// The test parses the non-test Go files of the root module and of the
// benchmark module, type-checks them with go/types, and collects every
// function and method that some identifier resolves to. A method of a
// concrete type also counts as called when a called interface method
// has its name and the type implements that interface, or when it
// implements fmt.Stringer or error, which fmt consults by type
// assertion. Anything else exported under internal/ that nothing
// reaches is reported, unless allowed below.
package apicheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed lists the exported functions and methods under internal/ that
// only tests call, each with the reason it stays. Keys are
// "<package>.<Func>" or "<package>.<Type>.<Method>", package relative
// to internal/.
var allowed = map[string]string{
	// Test-observation accessors: several packages' tests read state
	// through them, and nothing else needs to.
	"kvstore.New":              "tests build a store outside a cluster",
	"msgqueue.New":             "tests build a broker outside a cluster",
	"kvstore.Store.Len":        "tests count the keys a run leaves behind",
	"msgqueue.Broker.Len":      "tests count the messages a run leaves on a queue",
	"faas.Platform.Running":    "tests count the activations a run leaves running",
	"kvstore.Store.Registry":   "tests read the store's counters",
	"objstore.Store.Registry":  "tests read the store's counters",
	"msgqueue.Broker.Registry": "tests read the broker's counters",
	"faas.Platform.Registry":   "tests read the platform's counters",
	"shard.BatchView.IsRating": "tests check which kind of samples a batch view holds",
	"sparse.Vector.Get":        "tests read one coordinate of an update",
	"sparse.Vector.Equal":      "tests compare two updates entry by entry",
	"sparse.Vector.Clone":      "tests keep a copy of an update before it is reused",
	"sparse.Vector.ForEach":    "tests walk an update's entries one at a time",
	"trace.Event.ArgFloat":     "tests read a float annotation of a recorded event",
	"trace.Event.ArgStr":       "tests read a string annotation of a recorded event",

	// The tuner's records; no Result or trace carries them yet.
	"sched.Tuner.Decisions":      "the tuner's decision log, read by its tests until a Result carries it",
	"sched.Tuner.KneeStep":       "the detected knee, read by its tests until a Result carries it",
	"sched.Tuner.SmoothedLosses": "the smoothed curve, read by its tests until a Result carries it",
	"sched.Tuner.ReferenceCurve": "the fitted curve, read by its tests until a Result carries it",
}

const module = "mlless"

// loader type-checks the module's packages from source, once each, so
// that every package sees the same objects.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	std   types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	return l.check(path)
}

func (l *loader) check(path string) (*types.Package, error) {
	dir := l.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.infos[path] = info
	return p, nil
}

// packageDirs maps each package directory under root that holds
// non-test Go files to its import path under prefix.
func packageDirs(root, prefix string, skip map[string]bool) (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (skip[p] || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			path := prefix
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			dirs[path] = filepath.Dir(p)
		}
		return nil
	})
	return dirs, err
}

// implementsAny reports whether t or *t implements one of ifaces.
func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func TestExportedAPIHasCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(root, "benchmark")
	dirs, err := packageDirs(root, module, map[string]bool{bench: true})
	if err != nil {
		t.Fatal(err)
	}
	benchDirs, err := packageDirs(bench, module+"/benchmark", nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range benchDirs {
		dirs[p] = d
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		dirs:  dirs,
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// Every function or method an identifier resolves to, and, per
	// method name, the interfaces whose method of that name is called.
	used := map[*types.Func]bool{}
	called := map[string][]*types.Interface{}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[fn.Name()] = append(called[fn.Name()], it)
				}
			}
		}
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
	}, nil).Complete()
	called["Error"] = append(called["Error"], errType)
	called["String"] = append(called["String"], stringer)

	var dead []string
	seen := map[string]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		pkg := l.pkgs[p]
		rel := strings.TrimPrefix(p, module+"/internal/")
		report := func(name string, fn *types.Func) {
			if used[fn] {
				return
			}
			seen[name] = true
			if _, ok := allowed[name]; ok {
				return
			}
			dead = append(dead, fmt.Sprintf("%s (%s)", name, fset.Position(fn.Pos())))
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			switch obj := scope.Lookup(n).(type) {
			case *types.Func:
				if obj.Exported() {
					report(rel+"."+n, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if it, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						if m := it.ExplicitMethod(i); m.Exported() {
							report(rel+"."+n+"."+m.Name(), m)
						}
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if !m.Exported() || implementsAny(named, called[m.Name()]) {
						continue
					}
					report(rel+"."+n+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but only tests call it: %s", d)
	}
	var stale []string
	for name := range allowed {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allow-list entry %s has a caller or is gone; remove it", name)
	}
}
