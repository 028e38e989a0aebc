// Package surface checks the repository's exported surface with the
// standard library alone: every exported declaration under internal/
// must be named from another directory, and every backticked Go name
// in README.md must name something in the tree.
//
// The walk reads internal/, cmd/, examples/ and the separate bench/
// module as callers. A top-level name counts as named when a file in
// another directory writes pkg.Name; a method counts when such a file
// writes .Name on anything. Tests in the declaring directory do not
// count, package x_test included. A type that appears in the
// signature of a reached declaration (parameters, results, fields,
// declared types) counts as reached. What the walk cannot see, such
// as methods only the standard library calls through an interface,
// goes in allowlist with its reason.
package surface

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allowlist names exported declarations the walk cannot see being
// used, keyed "pkg.Name" or "pkg.Type.Method", each with the reason
// it stays exported.
var allowlist = map[string]string{
	"experiments.ThroughputPoint.MarshalJSON": "json.Marshaler: encoding/json calls it when ffbench writes its report",
	"health.Status.MarshalJSON":               "json.Marshaler: encoding/json calls it for /debug/health",
	"simnet.conn.LocalAddr":                   "net.Conn: callers hold simnet connections as net.Conn",
	"simnet.conn.RemoteAddr":                  "net.Conn: callers hold simnet connections as net.Conn",
	"simnet.simAddr.Network":                  "net.Addr: LocalAddr and RemoteAddr return it as net.Addr",
}

// readmeAllowlist names backticked dotted spans in README.md that are
// not Go names, each with what they are.
var readmeAllowlist = map[string]string{
	"VMULPS.BCST": "an AVX-512 instruction with its broadcast suffix",
}

// callerRoots are the directories whose Go files are read as callers.
var callerRoots = []string{"internal", "cmd", "examples", "bench"}

// fileExts are trailing span parts that make a backticked name a file
// name rather than a Go name (`simnet.go`, `mc.weights`).
var fileExts = map[string]bool{
	"go": true, "s": true, "h": true, "md": true, "json": true, "yml": true,
	"sh": true, "mod": true, "txt": true, "weights": true, "ffa": true, "png": true,
}

type file struct {
	dir  string // slash path relative to the root
	test bool
	ast  *ast.File
}

// decl is one top-level declaration or method anywhere in the tree.
type decl struct {
	dir, pkg string
	recv     string // receiver type name; "" for a top-level name
	name     string
	test     bool     // declared in a _test.go file
	sig      ast.Node // what reaching this declaration reaches: a func's type, a type's definition, a value's type
	pos      token.Position
}

func (d *decl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// tree is the parsed repository: every declaration, the package name
// of every directory, and the names each directory's files select.
type tree struct {
	decls   []*decl
	pkgOf   map[string]string          // dir -> package name (non-test files)
	fields  map[string]map[string]bool // type name -> its field names
	embeds  map[string][]string        // type name -> embedded type names
	pkgRefs map[string]map[string]bool // "dir.Name" -> dirs writing pkg.Name
	selRefs map[string]map[string]bool // "Name" -> dirs writing .Name (not on a package)
}

// load parses every Go file under root's caller roots.
func load(root string) (*tree, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []file
	for _, r := range callerRoots {
		err := filepath.WalkDir(filepath.Join(root, r), func(p string, d os.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return filepath.SkipDir
				}
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, filepath.Dir(p))
			files = append(files, file{dir: filepath.ToSlash(rel), test: strings.HasSuffix(p, "_test.go"), ast: f})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	t := &tree{
		pkgOf:   map[string]string{},
		fields:  map[string]map[string]bool{},
		embeds:  map[string][]string{},
		pkgRefs: map[string]map[string]bool{},
		selRefs: map[string]map[string]bool{},
	}
	for _, f := range files {
		if !f.test {
			t.pkgOf[f.dir] = f.ast.Name.Name
		}
	}
	for _, f := range files {
		t.declare(fset, f)
		t.reference(module, f)
	}
	return t, nil
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", os.ErrNotExist
}

// declare records f's top-level declarations, methods, and the fields
// and embedded types of its structs.
func (t *tree) declare(fset *token.FileSet, f file) {
	pkg := strings.TrimSuffix(f.ast.Name.Name, "_test")
	add := func(recv, name string, sig ast.Node, pos token.Pos) {
		t.decls = append(t.decls, &decl{dir: f.dir, pkg: pkg, recv: recv, name: name,
			test: f.test, sig: sig, pos: fset.Position(pos)})
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil && len(d.Recv.List) > 0 {
				recv = typeName(d.Recv.List[0].Type)
			}
			add(recv, d.Name.Name, d.Type, d.Name.Pos())
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add("", s.Name.Name, s, s.Name.Pos())
					t.members(s)
				case *ast.ValueSpec:
					var typ ast.Node
					if s.Type != nil {
						typ = s.Type
					}
					for _, n := range s.Names {
						add("", n.Name, typ, n.Pos())
					}
				}
			}
		}
	}
}

// members records a type's field names, interface method names and
// embedded types, which README's Type.Member spans may name.
func (t *tree) members(s *ast.TypeSpec) {
	var list *ast.FieldList
	switch u := s.Type.(type) {
	case *ast.StructType:
		list = u.Fields
	case *ast.InterfaceType:
		list = u.Methods
	default:
		return
	}
	m := t.fields[s.Name.Name]
	if m == nil {
		m = map[string]bool{}
		t.fields[s.Name.Name] = m
	}
	for _, fl := range list.List {
		for _, n := range fl.Names {
			m[n.Name] = true
		}
		if len(fl.Names) == 0 {
			t.embeds[s.Name.Name] = append(t.embeds[s.Name.Name], typeName(fl.Type))
		}
	}
}

// typeName is the bare name of a receiver or embedded type: *T, T[P]
// and pkg.T all give T.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// reference records every name f selects: pkg.Name for a package of
// the tree f imports, .Name for any other selector.
func (t *tree) reference(module string, f file) {
	imports := map[string]string{} // local name -> dir
	for _, is := range f.ast.Imports {
		p := strings.Trim(is.Path.Value, `"`)
		dir, ok := strings.CutPrefix(p, module+"/")
		if !ok {
			continue
		}
		local := t.pkgOf[dir]
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = dir
	}
	mark := func(m map[string]map[string]bool, k string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][f.dir] = true
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if dir, ok := imports[id.Name]; ok {
				mark(t.pkgRefs, dir+"."+sel.Sel.Name)
				return true
			}
		}
		mark(t.selRefs, sel.Sel.Name)
		return true
	})
}

// unusedExports reports every exported non-test declaration under
// internal/ that no other directory names, directly or through the
// signature of one it does.
func (t *tree) unusedExports(allow map[string]string) []string {
	type local struct{ dir, name string }
	byName := map[local]*decl{} // exported top-level names, for signature reach
	var checked []*decl
	for _, d := range t.decls {
		if d.test || !ast.IsExported(d.name) || !strings.HasPrefix(d.dir, "internal/") {
			continue
		}
		checked = append(checked, d)
		if d.recv == "" {
			byName[local{d.dir, d.name}] = d
		}
	}
	namedElsewhere := func(dirs map[string]bool, self string) bool {
		for dir := range dirs {
			if dir != self {
				return true
			}
		}
		return false
	}
	reached := map[*decl]bool{}
	var work []*decl
	for _, d := range checked {
		var ok bool
		if d.recv != "" {
			ok = namedElsewhere(t.selRefs[d.name], d.dir)
		} else {
			ok = namedElsewhere(t.pkgRefs[d.dir+"."+d.name], d.dir)
		}
		if ok {
			reached[d] = true
			work = append(work, d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		inspectTypes(d.sig, func(id *ast.Ident) {
			if u := byName[local{d.dir, id.Name}]; u != nil && !reached[u] {
				reached[u] = true
				work = append(work, u)
			}
		})
	}
	var out []string
	for _, d := range checked {
		_, allowed := allow[d.key()]
		switch {
		case reached[d] && allowed:
			out = append(out, d.pos.String()+": "+d.key()+" is named from another directory; drop its allowlist entry")
		case !reached[d] && !allowed:
			out = append(out, d.pos.String()+": "+d.key()+" is exported, but no other directory names it")
		}
	}
	for k := range allow {
		if !slices.ContainsFunc(checked, func(d *decl) bool { return d.key() == k }) {
			out = append(out, "allowlist: "+k+" names no exported declaration under internal/")
		}
	}
	slices.Sort(out)
	return out
}

// inspectTypes calls f for every unqualified identifier in the type
// expressions under n, skipping field, parameter and method names and
// the types of unexported struct fields, which no caller can reach.
func inspectTypes(n ast.Node, f func(*ast.Ident)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.StructType:
			for _, fl := range x.Fields.List {
				if len(fl.Names) == 0 && ast.IsExported(typeName(fl.Type)) ||
					slices.ContainsFunc(fl.Names, (*ast.Ident).IsExported) {
					inspectTypes(fl.Type, f)
				}
			}
			return false
		case *ast.Field:
			inspectTypes(x.Type, f)
			return false
		case *ast.TypeSpec:
			if x.TypeParams != nil {
				inspectTypes(x.TypeParams, f)
			}
			inspectTypes(x.Type, f)
			return false
		case *ast.SelectorExpr:
			return false // another package's name
		case *ast.Ident:
			f(x)
		}
		return true
	})
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	dotted   = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2})(?:\(.*\))?$`)
)

// staleReadme reports every backticked pkg.Name, Type.Member or
// pkg.Type.Member in the markdown text that names nothing in the
// tree. Fenced code blocks are skipped; spans whose first part is
// neither a package nor a type of the tree (stdlib names, variables)
// are skipped unless it is capitalised like a type.
func (t *tree) staleReadme(name, text string, allow map[string]string) []string {
	pkgs := map[string]bool{}
	for _, p := range t.pkgOf {
		pkgs[p] = true
	}
	top := map[string]bool{}     // "pkg.Name"
	types := map[string]bool{}   // type names
	methods := map[string]bool{} // "Type.Method"
	for _, d := range t.decls {
		if d.recv != "" {
			methods[d.recv+"."+d.name] = true
			continue
		}
		top[d.pkg+"."+d.name] = true
		if _, ok := d.sig.(*ast.TypeSpec); ok {
			types[d.name] = true
		}
	}
	var hasMember func(typ, m string, seen map[string]bool) bool
	hasMember = func(typ, m string, seen map[string]bool) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		if methods[typ+"."+m] || t.fields[typ][m] {
			return true
		}
		for _, e := range t.embeds[typ] {
			if e == m || hasMember(e, m, seen) {
				return true
			}
		}
		return false
	}
	member := func(typ, m string) bool { return hasMember(typ, m, map[string]bool{}) }

	// Blank fenced code blocks, keeping their lines so that positions
	// still count lines; a code span may then wrap across lines.
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fenced || fence {
			lines[i] = ""
		}
		if fence {
			fenced = !fenced
		}
	}
	text = strings.Join(lines, "\n")

	var out []string
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		span := strings.TrimSpace(text[m[2]:m[3]])
		g := dotted.FindStringSubmatch(span)
		if g == nil || strings.Contains(g[1], "_") {
			continue // not a Go name, or a metric name
		}
		if _, ok := allow[span]; ok {
			continue
		}
		parts := strings.Split(g[1], ".")
		if fileExts[parts[len(parts)-1]] {
			continue
		}
		x, y := parts[0], parts[1]
		var ok bool
		switch {
		case pkgs[x] && len(parts) == 2:
			ok = top[x+"."+y]
		case pkgs[x]:
			ok = top[x+"."+y] && member(y, parts[2])
		case types[x] && len(parts) == 2:
			ok = member(x, y)
		case len(parts) == 2 && ast.IsExported(x):
			ok = false // a capitalised Type.Member whose type is gone
		default:
			continue
		}
		if !ok {
			line := strings.Count(text[:m[0]], "\n") + 1
			out = append(out, name+":"+strconv.Itoa(line)+": `"+span+"` names nothing in the tree")
		}
	}
	return out
}

// check runs both checks over the tree at root and its README.md,
// with the given allowlists.
func check(root string, allow, readmeAllow map[string]string) ([]string, error) {
	t, err := load(root)
	if err != nil {
		return nil, err
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	return append(t.unusedExports(allow), t.staleReadme("README.md", string(readme), readmeAllow)...), nil
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}

// TestSurface fails on every exported name under internal/ that no
// other directory names, and on every stale backticked name in
// README.md.
func TestSurface(t *testing.T) {
	start := time.Now()
	findings, err := check(repoRoot(t), allowlist, readmeAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	t.Logf("checked the tree in %v", time.Since(start))
}

// TestSurfaceCatchesPlantedFaults runs the check on a tiny tree with
// one unused export and one stale README name among names that are
// fine, and requires exactly those two reports.
func TestSurfaceCatchesPlantedFaults(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.24\n")
	write("internal/a/a.go", `package a

// Used is called from cmd/c.
func Used() *Result { return nil }

// Result is reached through Used's signature.
type Result struct{ N int }

// Get is a method cmd/c selects.
func (*Result) Get() int { return 0 }

// Planted is exported, but only a's own tests call it.
func Planted() {}
`)
	write("internal/a/a_test.go", "package a\n\nimport \"testing\"\n\nfunc TestPlanted(t *testing.T) { Planted() }\n")
	write("internal/a/ext_test.go", "package a_test\n\nimport \"m/internal/a\"\n\nvar _ = a.Planted\n")
	write("cmd/c/main.go", "package main\n\nimport \"m/internal/a\"\n\nfunc main() { _ = a.Used().Get() }\n")
	write("README.md", "Call `a.Used`, read `Result.N` and `Result.Get()`; see `main.go` and `time.Sleep`.\n"+
		"```\n`a.Fenced`\n```\n"+
		"`a.Gone` was renamed.\n")

	got, err := check(root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !strings.Contains(got[0], "a.Planted is exported") || !strings.Contains(got[1], "`a.Gone` names nothing") {
		t.Fatalf("findings:\n%s\nwant a.Planted unused and `a.Gone` stale", strings.Join(got, "\n"))
	}
}
