// Command linkcheck fails when a function declared under internal/ is
// linked into none of the repository's binaries, so code that only
// tests reach cannot pile up again.
//
// It builds every main package of the module and of perfbench (a
// module of its own) with inlining off (-gcflags=all=-l), so a function
// the compiler would inline still shows up as a symbol. It reads the
// cloudvar text symbols of each binary with `go tool nm` and compares
// them with the function and method declarations of the non-test files
// under internal/, internal/testutil excepted. A function may stay
// unlinked only when it is on the keep-list below.
//
// Usage, from the repository root:
//
//	go run ./cmd/linkcheck
//
// Exit status is 1 when a declared function is linked by no binary and
// not kept, or when a keep-list entry is now linked or no longer
// declared; the entry must then leave the list in the same change.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// keepClass is why an unlinked function may stay.
type keepClass string

const (
	// comparator: a remaining test or benchmark measures linked code
	// against it.
	comparator keepClass = "comparator"
	// testInput: a contract or input that tests of linked code need and
	// nothing linked provides.
	testInput keepClass = "test input"
	// recipe: the README's scenario recipe behind the facade's
	// ScenarioWindow and ScenarioRamp.
	recipe keepClass = "recipe"
)

type keepEntry struct {
	fn     string // normalized name, as linkcheck prints it
	class  keepClass
	reason string
}

// keep is the committed list of functions no binary links that stay.
// Names are relative to internal/, with receivers written without
// their pointer: "sketch.Contract.MaxRankError".
var keep = []keepEntry{
	{"stats.BootstrapCI", comparator,
		"BenchmarkAblationCIMethod times the order-statistic median CI against it"},
	{"sketch.Contract.MaxRankError", testInput,
		"the committed rank-error allowance TestQuantileContract and TestStreamSummaryMoments hold the sketch to"},
	{"simrand.Source.Pareto", testInput,
		"the heavy-tailed input of the sketch contract suite"},
	{"spark.Job.TotalShuffleGbit", testInput,
		"the shuffle volume TestJobResultBookkeeping and TestTerasortVolumeMatchesFigure15 check node egress and Figure 15 against"},
	{"store.Store.Dir", testInput,
		"the root under which the byte-identity suites (shard, chaos, merge, columnar) read a run's committed files"},
	{"scenario.Window.ID", recipe, "ScenarioWindow's condition identity"},
	{"scenario.Window.Compile", recipe, "ScenarioWindow's capacity schedule"},
	{"scenario.Ramp.ID", recipe, "ScenarioRamp's condition identity"},
	{"scenario.Ramp.Compile", recipe, "ScenarioRamp's capacity schedule"},
	{"scenario.Scenario.ApplyCluster", recipe,
		"applies a scenario to the Spark simulator, as the README's scenario section describes"},
}

// modules are the directories, relative to the repository root, whose
// main packages are built. perfbench has its own go.mod.
var modules = []string{".", "perfbench"}

func main() {
	os.Exit(run(os.Stdout, os.Stderr))
}

func run(stdout, stderr io.Writer) int {
	root, modPath, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "linkcheck:", err)
		return 1
	}
	prefix := modPath + "/internal/"
	declared, err := declarations(root)
	if err != nil {
		fmt.Fprintln(stderr, "linkcheck:", err)
		return 1
	}
	linked, bins, err := linkedFuncs(root, prefix)
	if err != nil {
		fmt.Fprintln(stderr, "linkcheck:", err)
		return 1
	}
	problems := check(declared, linked, keep)
	for _, p := range problems {
		fmt.Fprintln(stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(stderr, "linkcheck: %d problem(s); delete the code, or add or drop its keep-list entry in cmd/linkcheck/main.go\n", len(problems))
		return 1
	}
	fmt.Fprintf(stdout, "linkcheck: %d binaries link all %d internal functions but the %d kept\n",
		bins, len(declared)-len(keep), len(keep))
	return 0
}

// moduleRoot returns the directory and path of the main module.
func moduleRoot() (dir, path string, err error) {
	out, err := goCmd("", "list", "-m", "-f", "{{.Dir}}\n{{.Path}}")
	if err != nil {
		return "", "", err
	}
	dir, path, ok := strings.Cut(strings.TrimSpace(string(out)), "\n")
	if !ok {
		return "", "", fmt.Errorf("go list -m: unexpected output %q", out)
	}
	return dir, path, nil
}

// decl is one function or method declared under internal/.
type decl struct {
	pos   string // file:line, relative to the repository root
	lines int    // lines of the declaration, doc comment included
}

// declarations parses every non-test Go file under root/internal,
// skipping internal/testutil and testdata, and returns its functions
// and methods by normalized name.
func declarations(root string) (map[string]decl, error) {
	internal := filepath.Join(root, "internal")
	out := map[string]decl{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(internal, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel, _ := filepath.Rel(internal, path); rel == "testutil" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(internal, filepath.Dir(path))
		pkg := filepath.ToSlash(rel)
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "." + declName(fn)
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			p := fset.Position(fn.Pos())
			file, _ := filepath.Rel(root, p.Filename)
			out[key] = decl{
				pos:   filepath.ToSlash(file) + ":" + strconv.Itoa(p.Line),
				lines: fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
			}
		}
		return nil
	})
	return out, err
}

// declName is a declaration's name as normalize writes it: Func, or
// Type.Method whatever the receiver's pointer and type parameters.
func declName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.ParenExpr:
			t = x.X
			continue
		}
		break
	}
	id, _ := t.(*ast.Ident)
	if id == nil {
		return fn.Name.Name
	}
	return id.Name + "." + fn.Name.Name
}

// linkedFuncs builds every main package of each module into a temporary
// directory and returns the normalized names of the functions under
// prefix that any of them links, with the number of binaries built.
func linkedFuncs(root, prefix string) (map[string]bool, int, error) {
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	linked := map[string]bool{}
	bins := 0
	for i, mod := range modules {
		dir := filepath.Join(root, mod)
		out, err := goCmd(dir, "list", "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./...")
		if err != nil {
			return nil, 0, err
		}
		pkgs := strings.Fields(string(out))
		if len(pkgs) == 0 {
			return nil, 0, fmt.Errorf("module %s has no main package", mod)
		}
		binDir := filepath.Join(tmp, strconv.Itoa(i)) + string(filepath.Separator)
		args := append([]string{"build", "-gcflags=all=-l", "-o", binDir}, pkgs...)
		if _, err := goCmd(dir, args...); err != nil {
			return nil, 0, err
		}
		entries, err := os.ReadDir(binDir)
		if err != nil {
			return nil, 0, err
		}
		for _, e := range entries {
			out, err := goCmd("", "tool", "nm", filepath.Join(binDir, e.Name()))
			if err != nil {
				return nil, 0, err
			}
			for _, sym := range textSymbols(out) {
				if rest, ok := strings.CutPrefix(sym, prefix); ok {
					linked[normalize(rest)] = true
				}
			}
			bins++
		}
	}
	return linked, bins, nil
}

// textSymbols returns the names of the text (code) symbols in the
// output of go tool nm: "address type name", where a generic
// instantiation's name may itself contain spaces.
func textSymbols(nm []byte) []string {
	var syms []string
	for _, line := range strings.Split(string(nm), "\n") {
		fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(fields) == 3 && (fields[1] == "T" || fields[1] == "t") {
			syms = append(syms, fields[2])
		}
	}
	return syms
}

// normalize maps a linker symbol, with its module path and "internal/"
// already cut, to the name of the declaration whose code it is:
//
//	fleet/pool.Collect[go.shape.struct { Rows [][]string }].func1 -> fleet/pool.Collect
//	store.(*Run).Put-fm                                        -> store.Run.Put
//	sketch.(*Set[go.shape.int]).Add.gowrap1                     -> sketch.Set.Add
//
// Type arguments (brackets nest), closures (.funcN, .N), go and defer
// wrappers (.gowrapN, .deferwrapN), range-over-func bodies (-rangeN),
// method values (-fm) and a receiver's pointer all belong to the
// declaration they were compiled from.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	for {
		if i := strings.LastIndexByte(s, '-'); i >= 0 && (s[i+1:] == "fm" || isNumbered(s[i+1:], "range")) {
			s = s[:i]
			continue
		}
		i := strings.LastIndexByte(s, '.')
		if i < 0 {
			break
		}
		last := s[i+1:]
		if isNumbered(last, "") || isNumbered(last, "func") || isNumbered(last, "gowrap") || isNumbered(last, "deferwrap") {
			s = s[:i]
			continue
		}
		break
	}
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.Index(s[i:], ")."); j >= 0 {
			s = s[:i+1] + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
}

// isNumbered reports whether s is word followed by one or more digits.
func isNumbered(s, word string) bool {
	digits, ok := strings.CutPrefix(s, word)
	if !ok || digits == "" {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// check returns one line per unlinked function that is not kept, and
// per keep-list entry that is linked or no longer declared.
func check(declared map[string]decl, linked map[string]bool, keep []keepEntry) []string {
	kept := map[string]bool{}
	var problems []string
	for _, k := range keep {
		kept[k.fn] = true
		switch _, ok := declared[k.fn]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("kept but not declared: %s", k.fn))
		case linked[k.fn]:
			problems = append(problems, fmt.Sprintf("kept but linked: %s", k.fn))
		}
	}
	var unlinked []string
	for name, d := range declared {
		if !linked[name] && !kept[name] {
			unlinked = append(unlinked, fmt.Sprintf("%s: %s is linked by no binary (%d lines)", d.pos, name, d.lines))
		}
	}
	slices.Sort(unlinked)
	return append(problems, unlinked...)
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}
