package parallaft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExportsAllowed names the exported funcs and methods under internal/
// that no non-test code calls and that stay anyway, each with its reason.
// A key is "pkg.Func" or "pkg.Type.Method".
var unusedExportsAllowed = map[string]string{
	"mem.AddressSpace.MapCountOf":       "DESIGN.md's map-count query, the tested surface of shared-frame accounting",
	"core.Runtime.InjectExternalSignal": "§4.3.3's asynchronous-signal path, which no entry point reaches",
	"mem.Frame.MapCount":                "checkd's frame oracle: a rebuilt space's frames are counted by reference",
	"pagestore.Store.Each":              "checkd's chunk oracle: every chunk a checker keeps is re-hashed",
	"pagestore.Store.PutFrame":          "the one-frame reference that PutFrames is tested against",
	"checkd.Verdict.InfraErr":           "typed-error API: an INFRA verdict's cause as an error",
	"checkd.ConnError.Unwrap":           "typed-error API: errors.Is and errors.As see the conn's own error",
}

func init() {
	// The program builder emits every opcode form, whether or not a
	// workload uses it yet.
	for _, m := range []string{"Bge", "CvtIF", "FCmpLt", "FMov", "Halt", "Jal", "Nop", "OrI", "SltI", "VMul"} {
		unusedExportsAllowed["asm.Builder."+m] = "the program builder's instruction set, one method per opcode form"
	}
}

// TestEveryExportHasACaller fails for an exported func or method under
// internal/ that no non-test file in the module tree (benchmark/, cmd/ and
// examples/ included) names anywhere but in its own declaration, unless it
// is allowed above. An export only tests call is dead weight on the API: its
// test reads the unexported state in-package instead. The check is by name,
// so a method shares its callers with every other of the same name.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	uses := map[string]int{} // identifier -> occurrences outside func names
	walkNonTest(t, func(path string, fset *token.FileSet, f *ast.File) {
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok {
				declNames[fd.Name] = true
				if strings.HasPrefix(path, "internal/") && fd.Name.IsExported() {
					key := fd.Name.Name
					if fd.Recv != nil {
						key = recvType(fd.Recv.List[0].Type) + "." + key
					}
					key = filepath.Base(filepath.Dir(path)) + "." + key
					decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name]++
			}
			return true
		})
	})
	if len(decls) == 0 {
		t.Fatal("found no exported funcs under internal/")
	}
	var unused []string
	needed := map[string]bool{} // allowlist entries some unused export needs
	for _, d := range decls {
		if uses[d.key[strings.LastIndex(d.key, ".")+1:]] > 0 {
			continue
		}
		if _, ok := unusedExportsAllowed[d.key]; ok {
			needed[d.key] = true
			continue
		}
		unused = append(unused, d.key+" ("+d.pos+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named by no non-test code: %s", u)
	}
	for key := range unusedExportsAllowed {
		if !needed[key] {
			t.Errorf("allowlist entry %s matches no export without a caller; drop it", key)
		}
	}
}

// TestLayoutNamesEveryPackage fails when doc.go's package map is stale: a
// package under internal/ or cmd/ that its layout does not list, or a listed
// path that holds no package.
func TestLayoutNamesEveryPackage(t *testing.T) {
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(src), "\n") {
		if row, ok := strings.CutPrefix(line, "//\t"); ok {
			if f := strings.Fields(row); len(f) > 0 && (strings.HasPrefix(f[0], "internal/") || strings.HasPrefix(f[0], "cmd/")) {
				listed[f[0]] = true
			}
		}
	}
	pkgs := map[string]bool{}
	walkNonTest(t, func(path string, _ *token.FileSet, _ *ast.File) {
		if strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/") {
			pkgs[filepath.Dir(path)] = true
		}
	})
	for pkg := range pkgs {
		if !listed[pkg] {
			t.Errorf("package %s is missing from doc.go's layout", pkg)
		}
	}
	for path := range listed {
		if !pkgs[path] {
			t.Errorf("doc.go's layout lists %s, which holds no package", path)
		}
	}
}

// unreadSettingsAllowed names the exported fields of a Config or Options
// struct under internal/ that no non-test code reads and that stay anyway,
// each with its reason. A key is "pkg.Type.Field".
var unreadSettingsAllowed = map[string]string{}

// TestEverySettingIsRead fails for an exported field of a struct named Config
// or Options under internal/ that no non-test file in the module tree reads,
// unless it is allowed above. Assigning the field or naming it in a composite
// literal is not a read: a setting only written changes nothing, and what it
// claims to configure is decided elsewhere. Like TestEveryExportHasACaller
// the check is by name: a read of x.F counts for every field named F.
func TestEverySettingIsRead(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	reads := map[string]int{} // field name -> selector reads
	walkNonTest(t, func(path string, fset *token.FileSet, f *ast.File) {
		written := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !strings.HasPrefix(path, "internal/") || (n.Name.Name != "Config" && n.Name.Name != "Options") {
					break
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							key := filepath.Base(filepath.Dir(path)) + "." + n.Name.Name + "." + name.Name
							decls = append(decls, decl{key, name.Name, fset.Position(name.Pos()).String()})
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						written[lhs] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					reads[n.Sel.Name]++
				}
			}
			return true
		})
	})
	if len(decls) == 0 {
		t.Fatal("found no Config or Options structs under internal/")
	}
	var unread []string
	needed := map[string]bool{} // allowlist entries some unread field needs
	for _, d := range decls {
		if reads[d.name] > 0 {
			continue
		}
		if _, ok := unreadSettingsAllowed[d.key]; ok {
			needed[d.key] = true
			continue
		}
		unread = append(unread, d.key+" ("+d.pos+")")
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("setting read by no non-test code: %s", u)
	}
	for key := range unreadSettingsAllowed {
		if !needed[key] {
			t.Errorf("allowlist entry %s matches no unread setting; drop it", key)
		}
	}
}

// walkNonTest parses every non-test Go file in the module tree (benchmark/,
// cmd/ and examples/ included; testdata and dot directories skipped) and
// hands each to fn with its slash-separated path.
func walkNonTest(t *testing.T, fn func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recvType is a method receiver's type name, without its pointer. (No type
// under internal/ with methods is generic.)
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}
