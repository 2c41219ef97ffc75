// Package orphans holds one test: every exported func, type, value and
// method declared under internal/ must be reached from non-test code
// somewhere in the checkout (internal/, cmd/, examples/, the root package
// and the benchmark/ module), or be listed in allowed with a reason.
//
// The scan is name-based, on go/parser syntax trees without type
// information. A package-level symbol counts as reached when a live
// declaration names it (pkg.Name from another package, Name from its
// own). A method counts as reached when its receiver type is reached and
// some live declaration selects its name (x.Name), or when the standard
// library calls that name through an interface. A declaration is live
// when it is unexported, declared outside internal/, or itself reached,
// so a type named only by its own methods' receivers, or a func called
// only by other orphans, is an orphan too.
package orphans

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowed holds the exported symbols under internal/ that no non-test code
// reaches but that stay: conformance suites other packages' tests run, and
// test seams tests use to drive or observe other code. Keys are the path
// under internal/, a dot, then [Receiver.]Name. Each reason names the tests
// that need the symbol. An entry whose symbol is gone, or has gained a
// non-test caller, fails the test.
var allowed = map[string]string{
	// Conformance suites.
	"ring.ConformWrap":         "wrap suite for the raw ring and both its users: TestRingTicketValidationAtWrap, TestLedgerTicketValidationAtWrap, TestEventRingTicketValidationAtWrap",
	"udpio.ConformBatchWriter": "relaycore.BatchWriter contract suite: TestConformLoopback runs it on the batched and the per-packet socket",

	// Test seams.
	"camera.Camera.ProjectFromWorld":    "forward model the tests check unprojection against: TestCameraWorldRoundTrip, TestNewRingGeometry, TestPointsFromViewsReconstructionConsistency; it keeps Intrinsics.Project (TestProjectUnprojectRoundTrip, TestProjectRejects) and Pose.InverseTransformPoint (TestPoseTransform, TestCalibrateSyntheticRig) reached",
	"codec/vcodec.Decoder.HasReference": "FuzzDecode checks that every accepted packet leaves the decoder a reference",
	"core.Receiver.SeqMismatches":       "TestMarkerPairingOutOfOrder checks that in-band markers agree with transport sequence numbers",
	"cull.FrustumPredictor.Horizon":     "TestFrustumPredictorHorizon observes ObserveRTT's smoothing and SetHorizon's override",
	"experiments.ChaosResult.GeomBySeq": "TestChaosRecovery compares each frame of the chaos run with the same frame of the clean run",
	"geom.Mat4.AlmostEqual":             "TestMat4MulAssociativity and TestMat4InverseRigid compare matrix products with it",
	"geom.Vec3.AlmostEqual":             "point comparisons in the geom, camera, scene, trace, pointcloud and draco tests and the root TestPoseFeedbackRoundTrip",
	"geom.Vec3.IsFinite":                "TestVec3CrossOrthogonal filters its quick-check inputs with it; TestUserTraceWrapAndEmpty checks trace poses with it",
	"netem.Chaos.Bursts":                "TestChaosBurstLossStatistics checks that losses cluster into bursts",
	"netem.Chaos.Duplicated":            "TestChaosZeroConfigIsTransparent, TestChaosDeterministic and TestChaosBurstLossStatistics observe Apply's duplication",
	"netem.Chaos.Reordered":             "the same three netem tests observe Apply's reordering; relaycore's TestRouterChaos64 checks that its link reordered",
	"relaycore.BufPool.Misses":          "TestBufPoolRecycles checks that Get allocates only while the pool is cold",
	"relaycore.Router.WaitIdle":         "relaycore tests wait on it before asserting on delivered packets: TestRouterFanoutDelivery, TestRouterChaos64, TestNACKServedFromCache, TestLivenessEviction, FuzzRouteFeedback and others",
	"relaycore.SubQueue.Idle":           "drainAll, the helper the queue tests drain with, loops until it",
	"scene.Scene.NumObjects":            "TestBuildSceneObjectCounts checks each built scene against Table 3's object count",
}

// stdlibMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, sort.Interface, heap.Interface, io,
// net.Conn and net.PacketConn, http.Handler, encoding), so a declaration
// of one counts as called.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// decl is one package-level declaration: a func, a method, a type, or one
// name of a var/const spec.
type decl struct {
	pkg      string // import path
	name     string
	recv     string // receiver type name; "" unless a method
	internal bool   // declared under internal/
	pos      token.Position
	tops     []string // package-level symbols it names, as import path + "." + name
	sels     []string // names it selects, x.Name
}

func (d *decl) top() string { return d.pkg + "." + d.name }

// key is the allow-list spelling: path under internal/, then [Recv.]Name.
func (d *decl) key() string {
	k := strings.TrimPrefix(d.pkg, "livo/internal/") + "."
	if d.recv != "" {
		k += d.recv + "."
	}
	return k + d.name
}

func (d *decl) candidate() bool { return d.internal && ast.IsExported(d.name) }

func TestNoOrphanedExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	decls := scan(t, root)

	byKey := map[string]bool{}
	for _, d := range decls {
		if d.candidate() {
			byKey[d.key()] = true
		}
	}
	bare := reach(decls, nil)
	for _, k := range sortedKeys(allowed) {
		switch {
		case !byKey[k]:
			t.Errorf("allowed[%q]: no such exported symbol under internal/; drop the entry", k)
		case reachedKey(decls, bare, k):
			t.Errorf("allowed[%q]: non-test code reaches it now; drop the entry", k)
		}
	}

	live := reach(decls, allowed)
	var orphans []string
	for _, d := range decls {
		if d.candidate() && !live[d] {
			orphans = append(orphans, d.pos.String()+": "+d.key())
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no non-test caller: delete it, or allow-list it with the tests that need it", o)
	}
}

func reachedKey(decls []*decl, live map[*decl]bool, key string) bool {
	for _, d := range decls {
		if live[d] && d.candidate() && d.key() == key {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// reach returns the live declarations: it grows the live set from every
// non-candidate declaration and every candidate whose key is in roots until
// nothing more is reached.
func reach(decls []*decl, roots map[string]string) map[*decl]bool {
	live := map[*decl]bool{}
	named := map[string]bool{}
	called := map[string]bool{}
	for m := range stdlibMethods {
		called[m] = true
	}
	typeLive := map[string]bool{} // import path + "." + type name
	types := map[string]bool{}
	for _, d := range decls {
		if d.recv == "" {
			types[d.top()] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if live[d] {
				continue
			}
			_, root := roots[d.key()]
			ok := !d.candidate() || root
			if d.recv == "" {
				ok = ok || named[d.top()]
			} else {
				recv := d.pkg + "." + d.recv
				ok = (typeLive[recv] || !types[recv]) && (ok || called[d.name])
			}
			if !ok {
				continue
			}
			live[d], changed = true, true
			if d.recv == "" {
				typeLive[d.top()] = true
			}
			for _, s := range d.tops {
				named[s] = true
			}
			for _, s := range d.sels {
				called[s] = true
			}
		}
	}
	return live
}

// scan parses every non-test .go file under root, skipping testdata and
// hidden directories, and returns its package-level declarations.
func scan(t *testing.T, root string) []*decl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []*decl
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "livo"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		decls = append(decls, fileDecls(fset, f, pkg)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatalf("no declarations found under %s", root)
	}
	return decls
}

func fileDecls(fset *token.FileSet, f *ast.File, pkg string) []*decl {
	imports := map[string]string{} // local name → import path
	for _, s := range f.Imports {
		path, _ := strconv.Unquote(s.Path.Value)
		local := path[strings.LastIndex(path, "/")+1:]
		if s.Name != nil {
			local = s.Name.Name
		}
		imports[local] = path
	}
	internal := strings.HasPrefix(pkg, "livo/internal/")
	newDecl := func(id *ast.Ident, recv string) *decl {
		return &decl{pkg: pkg, name: id.Name, recv: recv, internal: internal, pos: fset.Position(id.Pos())}
	}

	var out []*decl
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			recv := ""
			if gd.Recv != nil && len(gd.Recv.List) > 0 {
				recv = recvName(gd.Recv.List[0].Type)
			}
			d := newDecl(gd.Name, recv)
			refs(d, imports, gd.Type)
			if gd.Body != nil {
				refs(d, imports, gd.Body)
			}
			out = append(out, d)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					d := newDecl(s.Name, "")
					if s.TypeParams != nil {
						refs(d, imports, s.TypeParams)
					}
					refs(d, imports, s.Type)
					out = append(out, d)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						d := newDecl(id, "")
						if s.Type != nil {
							refs(d, imports, s.Type)
						}
						for _, v := range s.Values {
							refs(d, imports, v)
						}
						out = append(out, d)
					}
				}
			}
		}
	}
	return out
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// refs records what n names into d. It over-counts on purpose (a local
// variable that shares a package-level name counts as naming it), so the
// scan can miss an orphan but never flags a reached symbol.
func refs(d *decl, imports map[string]string, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					d.tops = append(d.tops, path+"."+n.Sel.Name)
				}
			}
			d.sels = append(d.sels, n.Sel.Name)
			refs(d, imports, n.X)
			return false
		case *ast.Field:
			// Field, parameter and interface-method names declare; only
			// the type refers.
			if n.Type != nil {
				refs(d, imports, n.Type)
			}
			return false
		case *ast.Ident:
			d.tops = append(d.tops, d.pkg+"."+n.Name)
		}
		return true
	})
}
