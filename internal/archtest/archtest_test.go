// Package archtest holds the module's architecture rules, checked over the
// parsed source so that plain `go test ./...` enforces them. Each rule came
// from a drift that had to be undone. Each is one plain function from a
// module root to its violations, and one test that runs it on this module
// and on a planted violation under testdata/<dir>, which it must convict.
//
//	rule                                      test                                 dir            exemptions
//	vtags does not import machine             TestVtagsDoesNotImportMachine        vtags-machine  none
//	kcas does not import reclaim              TestKcasDoesNotImportReclaim         kcas-reclaim   none
//	tag-event observer methods inline         TestObserverEventMethodsInline       inline         none
//	machine per-access helpers inline         TestMachineAccessHelpersInline       inline-machine none
//	hooks are defined once                    TestHooksAreDefinedOnce              hooks          none
//	sets are listed once                      TestSetsAreListedOnce                sets           none
//	one definition per tree rule              TestOneDefinitionPerTreeRule         trees          none
//	backend capabilities are declared once    TestCapabilitiesAreDeclaredOnce      capabilities   none
//	parallel phases go through core.RunPhase  TestParallelPhasesGoThroughRunPhase  phases         benchmark/sim.go (ROADMAP 11)
//
// An exemption is a row of the exemptions table that names the ROADMAP item
// whose change removes it. A row that matches nothing fails ("exemption
// unused"), so the table can only shrink.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exemptions is every violation the module is allowed, by rule (its
// testdata directory) and file.
var exemptions = []struct{ rule, file, item string }{
	// The benchmark hand-rolls its simulated worker phase; ROADMAP 11 makes
	// it a harness cell, which goes through core.RunPhase.
	{"phases", "benchmark/sim.go", "ROADMAP 11"},
}

const module = "repro"

// check runs rule on the module and fails on every violation no exemption
// covers and on every exemption of the rule that covers none. It then runs
// rule on testdata/<dir>, which must yield exactly planted violations.
func check(t *testing.T, dir string, planted int, rule func(root string) []string) {
	t.Helper()
	used := make([]bool, len(exemptions))
	for _, v := range rule("../..") {
		exempt := false
		for i, e := range exemptions {
			if e.rule == dir && strings.HasPrefix(v, e.file+":") {
				used[i], exempt = true, true
			}
		}
		if !exempt {
			t.Error(v)
		}
	}
	for i, e := range exemptions {
		if e.rule == dir && !used[i] {
			t.Errorf("exemption unused: %s in %s (%s)", dir, e.file, e.item)
		}
	}
	got := rule(filepath.Join("testdata", dir))
	for _, v := range got {
		t.Logf("testdata/%s convicted: %s", dir, v)
	}
	if len(got) != planted {
		t.Errorf("testdata/%s: %d violations convicted, want %d", dir, len(got), planted)
	}
}

// The trace-event vocabulary lives in internal/core, so the software backend
// does not depend on the hardware model.
func TestVtagsDoesNotImportMachine(t *testing.T) {
	check(t, "vtags-machine", 1, func(root string) []string {
		return importChain(root, "internal/vtags", "internal/machine")
	})
}

// kCAS descriptors come straight from the memory; the descriptor pools that
// once hung off reclaim had no caller and were deleted.
func TestKcasDoesNotImportReclaim(t *testing.T) {
	check(t, "kcas-reclaim", 1, func(root string) []string {
		return importChain(root, "internal/kcas", "internal/reclaim")
	})
}

func TestObserverEventMethodsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	check(t, "inline", 1, eventMethodsInline)
}

func TestMachineAccessHelpersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	check(t, "inline-machine", 3, machineHelpersInline)
}

func TestHooksAreDefinedOnce(t *testing.T)      { check(t, "hooks", 2, hooksDefinedOnce) }
func TestSetsAreListedOnce(t *testing.T)        { check(t, "sets", 3, setsListedOnce) }
func TestOneDefinitionPerTreeRule(t *testing.T) { check(t, "trees", 5, oneDefinitionPerTreeRule) }
func TestCapabilitiesAreDeclaredOnce(t *testing.T) {
	check(t, "capabilities", 3, capabilitiesDeclaredOnce)
}
func TestParallelPhasesGoThroughRunPhase(t *testing.T) {
	check(t, "phases", 2, phasesGoThroughRunPhase)
}

// importChain reports how module package from reaches module package to
// through the imports of non-test files, if it does.
func importChain(root, from, to string) []string {
	deps := map[string][]*ast.ImportSpec{}
	for _, f := range parse(root) {
		if !f.test {
			deps[f.dir] = append(deps[f.dir], f.ast.Imports...)
		}
	}
	type step struct{ from, pos string }
	via := map[string]step{from: {}}
	for queue := []string{from}; len(queue) > 0; queue = queue[1:] {
		for _, s := range deps[queue[0]] {
			p, ok := strings.CutPrefix(strings.Trim(s.Path.Value, `"`), module+"/")
			if _, seen := via[p]; ok && !seen {
				via[p] = step{queue[0], at(s)}
				queue = append(queue, p)
			}
		}
	}
	if _, ok := via[to]; !ok {
		return nil
	}
	chain, pos := to, ""
	for p := to; p != from; p = via[p].from {
		chain, pos = via[p].from+" -> "+chain, via[p].pos
	}
	return []string{pos + ": " + chain}
}

// eventMethodsInline: every tag-event method of tagobs.Observer is
// documented as small enough to inline, so a
// run with nothing attached pays one branch per event (emitSlow is
// go:noinline for this: inlined into Emit it pushed Emit, and every method
// that calls it, over the budget).
func eventMethodsInline(root string) []string {
	return inline(root, "internal/tagobs", "(*Observer).Tagged (*Observer).Untagged (*Observer).Cleared "+
		"(*Observer).Valid (*Observer).Validated (*Observer).Committed (*Observer).Emit")
}

// machineHelpersInline: the machine takes a directory line's lock and reads
// or writes its core sets on every simulated access. Each helper is a few
// instructions that a call would double (lock's fast path sits at 77 of
// Go's budget of 80), and nothing but this rule notices one growing past
// the budget (DESIGN.md, "Machine host layout").
func machineHelpersInline(root string) []string {
	return inline(root, "internal/machine", "(*dirState).lock (*dirState).unlock (*dirState).release "+
		"coreBits.has coreBits.add coreBits.remove dirEntry.sharers dirEntry.taggers")
}

// inline reads the compiler's inlining report for module package pkg and
// names each of funcs (space-separated, as the report spells them) that it
// does not report as inlinable.
func inline(root, pkg, funcs string) (vs []string) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./"+pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return []string{fmt.Sprintf("%s: go build: %v\n%s", pkg, err, out)}
	}
	can := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m): can inline (\S+)$`).FindAllStringSubmatch(string(out), -1) {
		can[m[1]] = true
	}
	for _, f := range strings.Fields(funcs) {
		if !can[f] {
			vs = append(vs, pkg+": "+f+" no longer inlines")
		}
	}
	return vs
}

// hooksDefinedOnce: the tracer, telemetry and reclamation hooks are written
// once, in internal/tagobs, and each backend keeps only its own mechanics.
// Two parallel copies drifted apart three times before they were folded
// (DESIGN.md 3b, divergence 1).
func hooksDefinedOnce(root string) (vs []string) {
	hooks := names("SetTracer SetTelemetry SetReclaim emitSlow noteValidatedTags")
	for _, f := range parse(root) {
		if f.test || !under(f.dir, "internal/machine", "internal/vtags") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && hooks[fd.Name.Name] {
				vs = append(vs, at(fd)+": a backend defines hook "+fd.Name.Name+"; it belongs in internal/tagobs")
			}
		}
		for _, p := range []string{"internal/telemetry", "internal/reclaim"} {
			if s := importOf(f.ast, p); s != nil {
				vs = append(vs, at(s)+": a backend imports "+p+"; attach sinks through internal/tagobs")
			}
		}
	}
	return vs
}

// setsListedOnce: the sets are listed once, in internal/sets, with their
// pool wiring, and the generic set checks run once, as the set contract in
// internal/sets/settest. Four copies of the list and six packages' copies of
// the checks had drifted into gaps (DESIGN.md 3d).
func setsListedOnce(root string) (vs []string) {
	for _, f := range parse(root) {
		switch {
		case !f.test && under(f.dir, "cmd/memtag-stress", "internal/harness"):
			for _, c := range calls(f.ast, "internal/reclaim", names("NewPool")) {
				vs = append(vs, at(c)+": wire a set's reclamation pool through its internal/sets entry")
			}
		case f.test && under(f.dir, "internal/list", "internal/skiplist", "internal/bst", "internal/chromatic", "internal/abtree", "internal/txset"):
			for _, c := range calls(f.ast, "internal/intset", names("CheckSequential CheckDisjointConcurrent CheckMixedConcurrent")) {
				vs = append(vs, at(c)+": a structure package re-runs a generic set check; it is a case of internal/sets/settest")
			}
		}
	}
	return vs
}

// oneDefinitionPerTreeRule: each tree's rules are written once, against
// treeupdate.Step; a second copy of a rule is how a cleanup path came to be
// audited in one flavour and not the other (DESIGN.md war story 4).
// chromatic is bst plus weights, so the leaf-oriented base is bst.Tree's
// alone. A rule's mirrored half is a second copy of it too: take a side
// index d (0 left, 1 right) and write the mirror as 1-d.
func oneDefinitionPerTreeRule(root string) (vs []string) {
	rules := names("fixDegree fixFlag fixRedRed fixOverweight cleanupPass")
	base := names("locate collect keys contains childslot isleaf keyof newbase newtree")
	first := map[string]string{} // scope and name -> first definition
	once := func(scope string, fd *ast.FuncDecl) {
		key := scope + " " + strings.ToLower(fd.Name.Name)
		if at0, dup := first[key]; dup {
			vs = append(vs, at(fd)+": "+fd.Name.Name+" is defined again (first at "+at0+")")
		} else {
			first[key] = at(fd)
		}
	}
	for _, f := range parse(root) {
		if f.test || !under(f.dir, "internal/abtree", "internal/bst", "internal/chromatic", "internal/txmap") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if rules[n.Name.Name] && f.dir != "internal/txmap" {
					once(f.dir, n)
				}
				if base[strings.ToLower(n.Name.Name)] && under(f.dir, "internal/bst", "internal/chromatic") {
					once("bst+chromatic", n)
				}
				if n.Name.Name == "rotateLeft" || n.Name.Name == "rotateRight" {
					vs = append(vs, at(n)+": "+n.Name.Name+" writes a tree rule once per orientation")
				}
			case *ast.Ident:
				if strings.Contains(n.Name, "IsLeft") {
					vs = append(vs, at(n)+": "+n.Name+" picks an orientation; index the side as d and mirror as 1-d")
				}
			}
			return true
		})
	}
	return vs
}

// capabilitiesDeclaredOnce: what a harness may ask of a backend beyond
// core.Memory and core.Thread is named once, in internal/core, plus one
// attach interface each in internal/telemetry and internal/reclaim. A local
// re-declaration (a named copy or an anonymous assertion) is how twenty of
// them came to exist, with two backends drifting apart behind them
// (DESIGN.md 3b).
func capabilitiesDeclaredOnce(root string) (vs []string) {
	capabilities := names("SetActive BeginEpoch OpClock SpareThread ForceTagEviction SetTracer SetTelemetry SetReclaim")
	oldNames := names("opClocked activatable epochAligner spareThreader forceEvictor")
	for _, f := range parse(root) {
		if under(f.dir, "internal/core", "internal/telemetry", "internal/reclaim") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						if capabilities[id.Name] {
							vs = append(vs, at(id)+": interface declares capability "+id.Name+"; use internal/core's (or telemetry/reclaim.Attacher)")
						}
					}
				}
			case *ast.TypeSpec:
				// A set's retire hook, SetReclaim(*reclaim.Pool), is not the
				// backend's SetReclaim(*reclaim.Domain); this is its one home.
				if f.dir == "internal/sets" && n.Name.Name == "Reclaimer" {
					return false
				}
				if oldNames[n.Name.Name] {
					vs = append(vs, at(n)+": local capability type "+n.Name.Name+"; use internal/core's")
				}
			}
			return true
		})
	}
	return vs
}

// phasesGoThroughRunPhase: a parallel phase over a Memory is core.RunPhase
// (align, fork, enrol every worker, release, withdraw, join). Only the
// machine backend, the schedule explorer's gated controller and the fuzz
// wrapper's forwarder touch enrolment directly.
func phasesGoThroughRunPhase(root string) (vs []string) {
	for _, f := range parse(root) {
		if !under(f.dir, "internal/core", "internal/machine", "internal/schedexplore", "internal/schedfuzz") {
			for _, c := range calls(f.ast, "", names("SetActive")) {
				vs = append(vs, at(c)+": enrol workers through core.RunPhase, not by hand")
			}
		}
	}
	return vs
}

type file struct {
	dir  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

var (
	fset   = token.NewFileSet()
	parsed = map[string][]file{}
)

// parse returns every Go file under root, test files included, skipping
// what the go command skips (testdata, and names starting with . or _).
// Positions print relative to root.
func parse(root string) []file {
	if files, ok := parsed[root]; ok {
		return files
	}
	var files []file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		src, err2 := os.ReadFile(p)
		if err != nil || err2 != nil {
			return fmt.Errorf("%s: %v %v", p, err, err2)
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
		files = append(files, file{path.Dir(rel), strings.HasSuffix(rel, "_test.go"), f})
		return err
	})
	if err != nil {
		panic(err) // the module or a plant under testdata does not parse
	}
	parsed[root] = files
	return files
}

// at is n's position as file:line.
func at(n ast.Node) string {
	p := fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// under reports whether dir is one of pkgs or inside one of them.
func under(dir string, pkgs ...string) bool {
	for _, p := range pkgs {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// names is the set of the space-separated words of s.
func names(s string) map[string]bool {
	set := map[string]bool{}
	for _, n := range strings.Fields(s) {
		set[n] = true
	}
	return set
}

// importOf returns f's import of module package pkg, under any name, or nil.
func importOf(f *ast.File, pkg string) *ast.ImportSpec {
	for _, s := range f.Imports {
		if strings.Trim(s.Path.Value, `"`) == module+"/"+pkg {
			return s
		}
	}
	return nil
}

// calls returns f's calls x.m(...) with m in methods. With pkg set, x must
// be the name f imports module package pkg under; otherwise x is anything.
func calls(f *ast.File, pkg string, methods map[string]bool) (cs []*ast.CallExpr) {
	local := ""
	if pkg != "" {
		s := importOf(f, pkg)
		if s == nil {
			return nil
		}
		if local = path.Base(pkg); s.Name != nil {
			local = s.Name.Name
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && methods[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); local == "" || ok && x.Name == local {
					cs = append(cs, c)
				}
			}
		}
		return true
	})
	return cs
}
