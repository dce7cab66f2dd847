package compositor

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// noticeComm is the fabric a policy under test broadcasts its FAILED notice
// into: it only counts sends.
type noticeComm struct {
	comm.Comm
	rank, size, sends int
}

func (c *noticeComm) Rank() int { return c.rank }
func (c *noticeComm) Size() int { return c.size }
func (c *noticeComm) Send(to, tag int, payload []byte) error {
	return c.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}
func (c *noticeComm) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	c.sends++
	return nil
}

// TestFailPolicyTable is the event × policy → verdict table of DESIGN.md,
// executed: for every failure event under each OnMissing value, the verdict,
// the telemetry counters that move, the FAILED notices sent, and — through
// rule, as the step loop and the gathers call it — the Report tallies.
func TestFailPolicyTable(t *testing.T) {
	const me, p, suspect = 0, 4, 2
	deadline := &comm.DeadlineError{Rank: me}
	peerDied := &comm.PeerError{Rank: suspect, Err: errors.New("connection reset")}
	local := errors.New("endpoint closed")
	corrupt := fmt.Errorf("block: %w", codec.ErrCorrupt)
	short := errors.New("short")

	// Grace states a Recover deadline can meet: off (silence-only
	// semantics), a first silence (grace), silence sustained to the
	// escalation bar (six prior deadlines).
	const noHealth, fresh, sustained = 0, 1, 2

	type tally struct {
		degraded             bool
		transfers, gathers   int
		hits, grace, escal   int64
		notices, noticeSends int
	}
	for _, row := range []struct {
		name   string
		mode   Policy
		ev     event
		err    error
		gather bool
		health int
		want   verdict
		tally  tally
	}{
		{"fail/send", FailFast, evSendFailed, peerDied, false, noHealth, fatal, tally{}},
		{"fail/send-local", FailFast, evSendFailed, local, false, noHealth, fatal, tally{}},
		{"fail/deadline", FailFast, evDeadline, deadline, false, fresh, fatal, tally{hits: 1}},
		{"fail/peer-died", FailFast, evPeerDied, peerDied, false, noHealth, fatal, tally{}},
		{"fail/corrupt", FailFast, evCorrupt, corrupt, false, noHealth, fatal, tally{}},
		{"fail/incomplete", FailFast, evIncomplete, short, false, noHealth, fatal, tally{}},
		{"fail/gather-short", FailFast, evGatherShort, short, true, noHealth, fatal, tally{}},

		{"partial/send", ComposePartial, evSendFailed, peerDied, false, noHealth, countMissing, tally{degraded: true, transfers: 1}},
		{"partial/send-local", ComposePartial, evSendFailed, local, false, noHealth, fatal, tally{}},
		{"partial/gather-send", ComposePartial, evSendFailed, peerDied, true, noHealth, countMissing, tally{degraded: true, gathers: 1}},
		{"partial/deadline", ComposePartial, evDeadline, deadline, false, fresh, countMissing, tally{degraded: true, transfers: 1, hits: 1}},
		{"partial/gather-deadline", ComposePartial, evDeadline, deadline, true, noHealth, countMissing, tally{degraded: true, gathers: 1, hits: 1}},
		{"partial/peer-died", ComposePartial, evPeerDied, peerDied, false, noHealth, countMissing, tally{degraded: true, transfers: 1}},
		{"partial/corrupt", ComposePartial, evCorrupt, corrupt, false, noHealth, countMissing, tally{degraded: true, transfers: 1}},
		{"partial/gather-corrupt", ComposePartial, evCorrupt, corrupt, true, noHealth, countMissing, tally{degraded: true, gathers: 1}},
		{"partial/incomplete", ComposePartial, evIncomplete, short, false, noHealth, countMissing, tally{degraded: true, transfers: 1}},
		{"partial/gather-short", ComposePartial, evGatherShort, short, true, noHealth, fatal, tally{}},

		{"recover/send", Recover, evSendFailed, peerDied, false, noHealth, abortAttempt, tally{notices: 1, noticeSends: p - 1}},
		{"recover/send-local", Recover, evSendFailed, local, false, noHealth, fatal, tally{}},
		{"recover/deadline-silence-only", Recover, evDeadline, deadline, false, noHealth, abortAttempt, tally{hits: 1, notices: 1, noticeSends: p - 1}},
		{"recover/deadline-grace", Recover, evDeadline, deadline, false, fresh, keepWaiting, tally{hits: 1, grace: 1}},
		{"recover/deadline-escalated", Recover, evDeadline, deadline, false, sustained, abortAttempt, tally{hits: 1, escal: 1, notices: 1, noticeSends: p - 1}},
		{"recover/peer-died", Recover, evPeerDied, peerDied, false, fresh, abortAttempt, tally{notices: 1, noticeSends: p - 1}},
		{"recover/corrupt", Recover, evCorrupt, corrupt, false, noHealth, abortAttempt, tally{notices: 1, noticeSends: p - 1}},
		{"recover/incomplete", Recover, evIncomplete, short, false, noHealth, abortAttempt, tally{notices: 1, noticeSends: p - 1}},
		{"recover/gather-short", Recover, evGatherShort, short, true, noHealth, abortAttempt, tally{notices: 1, noticeSends: p - 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			rec := telemetry.New()
			opts := Options{OnMissing: row.mode, Telemetry: rec, Grace: row.health != noHealth}
			fabric := &noticeComm{rank: me, size: p}
			var rx *rexec
			if row.mode == Recover {
				rx = &rexec{c: fabric, opts: opts, tel: rec, me: me, mem: comm.NewMembership(p)}
				if opts.Grace {
					rx.silences = make([]silence, p)
				}
				if row.health == sustained {
					rx.silences[suspect] = silence{n: 6, gray: true}
				}
			}
			pol := newFailPolicy(&opts, rx, me)
			silences := func() float64 {
				if rx == nil || rx.silences == nil {
					return 0
				}
				return rx.silences[suspect].n
			}
			before := silences()

			// Deadlines are put to on by the inboxes, which then lose what was
			// pending; every other event goes through rule.
			rep := &Report{Rank: me}
			var got verdict
			if row.ev == evDeadline {
				if got = pol.on(row.ev, row.err, []int{suspect}); got == countMissing {
					rep.lose(1, row.gather)
				}
				if rx != nil && opts.Grace && silences() != before+1 {
					t.Fatalf("the deadline did not count one silence against the suspect (%.1f -> %.1f)", before, silences())
				}
			} else {
				switch err := pol.rule(rep, row.gather, row.ev, row.err, []int{suspect}); {
				case err == nil:
					got = countMissing
				case errors.Is(err, errAborted):
					got = abortAttempt
				case err == row.err:
					got = fatal
				default:
					t.Fatalf("rule returned %v: neither nil, errAborted nor the event's own error", err)
				}
			}
			if got != row.want {
				t.Fatalf("verdict %d, want %d", got, row.want)
			}
			if got == abortAttempt {
				// A second abort of the same attempt sends no second notice.
				pol.on(evCorrupt, corrupt, nil)
			}
			tallied := tally{
				degraded: rep.Degraded, transfers: rep.MissingTransfers, gathers: rep.MissingGathers,
				hits:        sumCounter(rec, telemetry.CtrDeadlineHits),
				grace:       sumCounter(rec, telemetry.CtrDeadlineGrace),
				escal:       sumCounter(rec, telemetry.CtrHealthEscalations),
				notices:     int(sumCounter(rec, telemetry.CtrFailNotices)),
				noticeSends: fabric.sends,
			}
			if tallied != row.tally {
				t.Fatalf("tallies %+v, want %+v", tallied, row.tally)
			}
		})
	}
}

// TestStepLoopHasOneCopy is the guard that keeps a second step interpreter
// from growing back: in the package's non-test files, send and merge — the
// two halves of a step — have exactly one caller each, and HalveAll is
// called from the step loop and nowhere else.
func TestStepLoopHasOneCopy(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string][]string{}
	for _, file := range pkgs["compositor"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "send" || fun.Name == "merge" {
						callers[fun.Name] = append(callers[fun.Name], fn.Name.Name)
					}
				case *ast.SelectorExpr:
					if fun.Sel.Name == "HalveAll" {
						callers["HalveAll"] = append(callers["HalveAll"], fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	for name, want := range map[string][]string{
		"send":     {"run"},
		"merge":    {"run"},
		"HalveAll": {"run", "run"}, // pre and post
	} {
		got := callers[name]
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s is called from %v, want exactly %v: the step loop is written once (steps.go)", name, got, want)
		}
	}
}

// eachSourceFile parses every non-test .go file of the module, outside
// bench/ (a module of its own; .bench_build is its build copy), .git and the
// skipped directories, and hands it to visit.
func eachSourceFile(t *testing.T, skip []string, visit func(fset *token.FileSet, file *ast.File)) {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+"/"))
		if d.IsDir() {
			if rel == "bench" || rel == ".bench_build" || slices.Contains(skip, rel) || strings.HasPrefix(d.Name(), ".git") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneCursor is the guard that keeps hand-rolled decoders from growing
// back: outside internal/wire (the cursor) and internal/codec (the pixel
// codecs, whose streams are not messages), no non-test file of the module
// reads a varint itself — every variable-length message goes through
// wire.Reader, with its bounds, its canonical-form check and its
// trailing-byte check.
func TestOneCursor(t *testing.T) {
	eachSourceFile(t, []string{"internal/wire", "internal/codec"}, func(fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fun, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "binary" &&
					(fun.Sel.Name == "Uvarint" || fun.Sel.Name == "Varint" || fun.Sel.Name == "ReadUvarint") {
					t.Errorf("%s calls binary.%s: messages are read through wire.Reader (internal/wire)",
						fset.Position(call.Pos()), fun.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestOneReceive is the guard that keeps the timeout receives and the
// optional traced send from growing back: comm.Comm receives through one
// RecvAny that takes a deadline, and every fabric implements SendCtx. No
// non-test file of the module declares a RecvTimeout or RecvAnyTimeout
// method, on a type or in an interface, or names CtxSender.
func TestOneReceive(t *testing.T) {
	eachSourceFile(t, nil, func(fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			var methods []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					methods = append(methods, n.Name)
				}
			case *ast.InterfaceType:
				for _, f := range n.Methods.List {
					methods = append(methods, f.Names...)
				}
			case *ast.Ident:
				if n.Name == "CtxSender" {
					t.Errorf("%s names CtxSender: SendCtx is a method of comm.Comm", fset.Position(n.Pos()))
				}
			}
			for _, m := range methods {
				if m.Name == "RecvTimeout" || m.Name == "RecvAnyTimeout" {
					t.Errorf("%s declares %s: a receive takes a deadline, through RecvAny", fset.Position(m.Pos()), m.Name)
				}
			}
			return true
		})
	})
}

// TestOneInbox is the guard that keeps a second message source from growing
// back: the pipelined executor takes its messages through the step loop's
// inbox, so pipeline.go calls no receive of the fabric, the package declares
// one inbox type, and stepRun holds exactly one field of it. The goroutines a
// pipelined run starts are its tile workers and the root's gather — every one
// of them a reader of that inbox — and nothing else.
func TestOneInbox(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var inboxTypes, inboxFields, pipeGoroutines []string
	for name, file := range pkgs["compositor"].Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if name == "pipeline.go" {
					started := "an unnamed function"
					if fun, ok := n.Call.Fun.(*ast.SelectorExpr); ok {
						started = fun.Sel.Name
					}
					pipeGoroutines = append(pipeGoroutines, started)
				}
			case *ast.CallExpr:
				if fun, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(fun.Sel.Name, "Recv") &&
					name == "pipeline.go" {
					t.Errorf("%s calls %s: every receive of the compositor is fabricInbox.next's (steps.go)", name, fun.Sel.Name)
				}
			case *ast.TypeSpec:
				if strings.HasSuffix(n.Name.Name, "Inbox") {
					inboxTypes = append(inboxTypes, n.Name.Name)
				}
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "stepRun" {
					for _, f := range st.Fields.List {
						if id, ok := f.Type.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Inbox") {
							for _, fname := range f.Names {
								inboxFields = append(inboxFields, fname.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
	if !reflect.DeepEqual(inboxTypes, []string{"fabricInbox"}) {
		t.Errorf("inbox types %v, want fabricInbox alone", inboxTypes)
	}
	if len(inboxFields) != 1 {
		t.Errorf("stepRun holds inbox fields %v, want exactly one", inboxFields)
	}
	sort.Strings(pipeGoroutines)
	if !reflect.DeepEqual(pipeGoroutines, []string{"gatherTiles", "workerLoop"}) {
		t.Errorf("pipeline.go starts goroutines %v, want the window's workerLoop and the root's gatherTiles alone", pipeGoroutines)
	}
}
