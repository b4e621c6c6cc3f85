package harness

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

var quick = Options{Quick: true}

// quickSuite is Run("all", quick), computed once per test binary and
// shared by the shape tests, which each select the tables they check.
var quickSuite = sync.OnceValues(func() ([]Table, error) { return Run("all", quick) })

// suiteTables returns the quick suite's tables with the given ID, in
// rendered order.
func suiteTables(t *testing.T, id string) []Table {
	t.Helper()
	all, err := quickSuite()
	if err != nil {
		t.Fatal(err)
	}
	var out []Table
	for _, tb := range all {
		if tb.ID == id {
			out = append(out, tb)
		}
	}
	if len(out) == 0 {
		t.Fatalf("quick suite rendered no %s table", id)
	}
	return out
}

// suiteTable returns the quick suite's one table with the given ID.
func suiteTable(t *testing.T, id string) Table {
	t.Helper()
	tabs := suiteTables(t, id)
	if len(tabs) != 1 {
		t.Fatalf("quick suite rendered %d %s tables, want 1", len(tabs), id)
	}
	return tabs[0]
}

func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q: %v", tb.ID, row, col, tb.Rows[row][col], err)
	}
	return v
}

// rowByScheme finds a row whose first cell matches the scheme name.
func rowByScheme(t *testing.T, tb Table, name string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("table %s has no row %q", tb.ID, name)
	return nil
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig1ModelMatchesSimulator(t *testing.T) {
	tb := suiteTable(t, "FIG1")
	if len(tb.Rows) == 0 {
		t.Fatal("empty fig1 table")
	}
	for _, row := range tb.Rows {
		if row[1] != row[2] {
			t.Errorf("m=%s: RPC model %s != sim %s", row[0], row[1], row[2])
		}
		if row[3] != row[4] {
			t.Errorf("m=%s: data-migration model %s != sim %s", row[0], row[3], row[4])
		}
		if row[5] != row[6] {
			t.Errorf("m=%s: computation-migration model %s != sim %s", row[0], row[5], row[6])
		}
	}
}

func TestTable1Shape(t *testing.T) {
	t1, t2 := suiteTable(t, "TABLE1"), suiteTable(t, "TABLE2")
	get := func(name string) float64 { return parse(t, rowByScheme(t, t1, name)[1]) }
	// SM on top.
	sm := get("SM")
	for _, r := range t1.Rows {
		if r[0] != "SM" && parse(t, r[1]) >= sm {
			t.Errorf("table1: %s (%s) not below SM (%.3f)", r[0], r[1], sm)
		}
	}
	// CP beats RPC at equal options.
	pairs := [][2]string{
		{"CP", "RPC"},
		{"CP w/HW", "RPC w/HW"},
		{"CP w/repl.", "RPC w/repl."},
		{"CP w/repl. & HW", "RPC w/repl. & HW"},
	}
	for _, p := range pairs {
		if get(p[0]) <= get(p[1]) {
			t.Errorf("table1: %s (%.3f) not above %s (%.3f)", p[0], get(p[0]), p[1], get(p[1]))
		}
	}
	// Hardware support and replication each help within a family.
	mono := [][2]string{
		{"RPC w/HW", "RPC"}, {"RPC w/repl.", "RPC"},
		{"RPC w/repl. & HW", "RPC w/repl."}, {"RPC w/repl. & HW", "RPC w/HW"},
		{"CP w/HW", "CP"}, {"CP w/repl.", "CP"},
		{"CP w/repl. & HW", "CP w/repl."}, {"CP w/repl. & HW", "CP w/HW"},
	}
	for _, p := range mono {
		if get(p[0]) <= get(p[1]) {
			t.Errorf("table1: %s (%.3f) not above %s (%.3f)", p[0], get(p[0]), p[1], get(p[1]))
		}
	}

	// Table 2: SM bandwidth dominates; CP uses less than RPC.
	bw := func(name string) float64 { return parse(t, rowByScheme(t, t2, name)[1]) }
	if bw("SM") < 4*bw("RPC") {
		t.Errorf("table2: SM bandwidth (%.2f) not far above RPC (%.2f)", bw("SM"), bw("RPC"))
	}
	if bw("CP") >= bw("RPC") {
		t.Errorf("table2: CP bandwidth (%.2f) not below RPC (%.2f)", bw("CP"), bw("RPC"))
	}
}

func TestTable3Shape(t *testing.T) {
	t3, t4 := suiteTable(t, "TABLE3"), suiteTable(t, "TABLE4")
	sm := parse(t, rowByScheme(t, t3, "SM")[1])
	cprh := parse(t, rowByScheme(t, t3, "CP w/repl. & HW")[1])
	// The paper's headline: with light contention they are nearly equal.
	if cprh < 0.6*sm || cprh > 1.5*sm {
		t.Errorf("table3: CP w/repl. & HW (%.3f) not close to SM (%.3f)", cprh, sm)
	}
	// Bandwidth: SM pays coherence upkeep.
	smBW := parse(t, rowByScheme(t, t4, "SM")[1])
	cpBW := parse(t, rowByScheme(t, t4, "CP w/repl. & HW")[1])
	if smBW <= cpBW {
		t.Errorf("table4: SM bandwidth (%.2f) not above CP (%.2f)", smBW, cpBW)
	}
}

func TestTable5Shape(t *testing.T) {
	tb := suiteTable(t, "TABLE5")
	find := func(label string) []string {
		for _, r := range tb.Rows {
			if strings.TrimSpace(r[0]) == label {
				return r
			}
		}
		t.Fatalf("table5 missing row %q", label)
		return nil
	}
	total := parse(t, find("Total time")[1])
	if total < 400 || total > 1100 {
		t.Errorf("per-migration total = %.0f cycles, want same ballpark as paper's 651", total)
	}
	// Message overhead dominates (paper: 74%).
	pct := strings.TrimSuffix(find("Message overhead total")[2], "%")
	if p := parse(t, pct); p < 55 || p > 90 {
		t.Errorf("message overhead percent = %v, paper says 74%%", p)
	}
	// Receiver side costs more than sender side (341 vs 143).
	recv := parse(t, find("Receiver total")[1])
	send := parse(t, find("Sender total")[1])
	if recv <= send {
		t.Errorf("receiver total (%.0f) not above sender total (%.0f)", recv, send)
	}
}

func TestSmallNodeShape(t *testing.T) {
	tb := suiteTable(t, "SMALLNODE")
	sm := parse(t, rowByScheme(t, tb, "SM")[1])
	cp := parse(t, rowByScheme(t, tb, "CP w/repl.")[1])
	// Paper: 2.427 vs 2.076 — CP w/repl. within ~15% of SM. Our SM is
	// relatively faster, so just require the gap to be much narrower
	// than Table 1's (where SM leads CP w/repl. by several times).
	t1 := suiteTable(t, "TABLE1")
	smBig := parse(t, rowByScheme(t, t1, "SM")[1])
	cpBig := parse(t, rowByScheme(t, t1, "CP w/repl.")[1])
	if (sm / cp) >= (smBig / cpBig) {
		t.Errorf("smallnode: gap SM/CP (%.2f) did not narrow vs fanout-100 (%.2f)",
			sm/cp, smBig/cpBig)
	}
}

func TestCountnetFiguresShape(t *testing.T) {
	fig2, fig3 := suiteTables(t, "FIG2"), suiteTables(t, "FIG3")
	if len(fig2) != 2 || len(fig3) != 2 {
		t.Fatalf("want 2 think-time tables per figure, got %d/%d", len(fig2), len(fig3))
	}
	think0 := fig2[0]
	lastCol := len(think0.Headers) - 1
	get := func(tb Table, name string) float64 {
		return parse(t, rowByScheme(t, tb, name)[lastCol])
	}
	// Throughput at the highest thread count, 0 think time.
	if get(think0, "CP") <= get(think0, "RPC") {
		t.Error("fig2: CP not above RPC at high contention")
	}
	if get(think0, "CP w/HW") <= get(think0, "CP") {
		t.Error("fig2: hardware support did not help CP")
	}
	// Bandwidth: CM lowest, SM highest at 0 think.
	bw0 := fig3[0]
	if get(bw0, "CP") >= get(bw0, "RPC") {
		t.Error("fig3: CP bandwidth not below RPC")
	}
	if get(bw0, "SM") <= get(bw0, "RPC") {
		t.Error("fig3: SM bandwidth not above RPC at high contention")
	}
	// Low contention (think=10000): per completed request, CM moves well
	// under half the words of RPC and SM (§4.1; the figure's per-cycle
	// bandwidth comparison is confounded by CM's higher op rate here).
	bw1, th1 := fig3[1], fig2[1]
	perOp := func(name string) float64 {
		thr := get(th1, name)
		if thr == 0 {
			t.Fatalf("zero throughput for %s", name)
		}
		return get(bw1, name) / thr
	}
	if got := perOp("CP"); got >= 0.5*perOp("RPC") || got >= 0.5*perOp("SM") {
		t.Errorf("fig3 think=10000: CP words/op (%.2f) not under half of RPC (%.2f) and SM (%.2f)",
			got, perOp("RPC"), perOp("SM"))
	}
}

func TestRunDispatcher(t *testing.T) {
	for _, id := range []string{"fig1", "table5", "smallnode"} {
		tabs, err := Run(id, quick)
		if err != nil || len(tabs) == 0 {
			t.Errorf("Run(%q) = %v, %v", id, tabs, err)
		}
	}
	for _, id := range append(ExperimentIDs(), "all") {
		if exps, _, err := plan(id, quick); err != nil || len(exps) == 0 {
			t.Errorf("plan(%q) = %d experiments, %v", id, len(exps), err)
		}
	}
	_, err := Run("nosuch", quick)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range ExperimentIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not name %q", err, id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID: "X", Title: "demo", Note: "n",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tb.String()
	for _, want := range []string{"== X: demo", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestExtensionObjMigration(t *testing.T) {
	cn := suiteTable(t, "EXT-OBJMIG")
	get := func(tb Table, name string, col int) float64 {
		return parse(t, rowByScheme(t, tb, name)[col])
	}
	// Counting network: OM lands between RPC and CP at high contention
	// (it saves the per-access round trips but ping-pongs the balancers).
	if om := get(cn, "OM", 1); om >= get(cn, "CP", 1) {
		t.Errorf("ext: OM (%.2f) not below CP (%.2f) on write-shared balancers", om, get(cn, "CP", 1))
	}
	// Mobility actually happened.
	omRow := rowByScheme(t, cn, "OM")
	if parse(t, omRow[3]) == 0 || parse(t, omRow[4]) == 0 {
		t.Errorf("ext: OM row shows no moves/forwards: %v", omRow)
	}

	bt := suiteTable(t, "EXT-OBJMIG-BTREE")
	if om := get(bt, "OM", 1); om >= get(bt, "CP", 1) {
		t.Errorf("ext-btree: OM (%.3f) not below CP (%.3f)", om, get(bt, "CP", 1))
	}
}

func TestMarkdownRendering(t *testing.T) {
	tb := Table{
		ID: "T", Title: "demo", Note: "a note",
		Headers: []string{"x", "y"},
		Rows:    [][]string{{"1", "2"}},
	}
	out := tb.Markdown()
	for _, want := range []string{"### T: demo", "| x | y |", "| --- | --- |", "| 1 | 2 |", "*a note*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestParallelRunIsByteIdentical asserts the tentpole determinism
// contract: the full suite rendered with one worker and with four
// workers must be byte-identical, in both output formats.
func TestParallelRunIsByteIdentical(t *testing.T) {
	render := func(workers int) (string, string) {
		tabs, err := Run("all", Options{Quick: true, Workers: workers})
		if err != nil {
			t.Fatalf("Run(all, workers=%d): %v", workers, err)
		}
		var text, md strings.Builder
		for _, tb := range tabs {
			text.WriteString(tb.String())
			md.WriteString(tb.Markdown())
		}
		return text.String(), md.String()
	}
	serialText, serialMD := render(1)
	parallelText, parallelMD := render(4)
	if serialText != parallelText {
		t.Error("text tables differ between workers=1 and workers=4")
	}
	if serialMD != parallelMD {
		t.Error("markdown tables differ between workers=1 and workers=4")
	}
}

// TestRunSpecsOrderAndWorkerCounts asserts results always come back in
// spec order regardless of worker count, including more workers than
// specs.
func TestRunSpecsOrderAndWorkerCounts(t *testing.T) {
	specs := make([]RunSpec, 9)
	for i := range specs {
		specs[i] = func() any { return i }
	}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		results := runSpecs(specs, workers)
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.(int) != i {
				t.Fatalf("workers=%d: result %d = %v, out of spec order", workers, i, r)
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Errorf("default seed = %d", o.seed())
	}
	w, m := o.windows()
	if w == 0 || m == 0 {
		t.Error("zero windows")
	}
	qw, qm := Options{Quick: true}.windows()
	if qw >= w || qm >= m {
		t.Error("quick windows not smaller")
	}
	if len(threadCounts(false)) <= len(threadCounts(true)) {
		t.Error("full sweep not wider than quick sweep")
	}
}

// TestAblationShape checks each EXT-ABLATION table's note against its
// rows at quick windows.
func TestAblationShape(t *testing.T) {
	tabs, err := Run("ext-ablation", quick)
	if err != nil {
		t.Fatal(err)
	}
	titled := map[string]Table{}
	for _, tb := range tabs {
		titled[strings.SplitN(tb.Title, ":", 2)[0]] = tb
	}
	val := func(table, variant string, col int) float64 {
		return parse(t, strings.TrimSuffix(rowByScheme(t, titled[table], variant)[col], "%"))
	}
	// In each table, variant lo's metric in column col is below hi's.
	for _, c := range []struct {
		table  string
		col    int
		lo, hi string
	}{
		{"Active-Messages runtime (§6)", 1, "threaded", "active-messages"},
		{"Short-method fast path (§4.4)", 1, "always-thread", "fastpath"},
		{"LimitLESS directory", 1, "limitless-5ptr", "full-map"},
		{"Migration granularity (§2.3)", 1, "frame-only", "thread-512B"},
		{"Migration granularity (§2.3)", 1, "thread-512B", "thread-4096B"},
		{"Prefetch (§2.5)", 1, "demand", "prefetch"},
		{"Prefetch (§2.5)", 2, "demand", "prefetch"},
		{"Multithreading", 1, "threads-per-proc-1", "threads-per-proc-2"},
		{"Multithreading", 1, "threads-per-proc-2", "threads-per-proc-4"},
		{"Skew (§2.5)", 1, "hot-90-10, CP w/repl.", "uniform, CP w/repl."},
		{"Skew (§2.5)", 1, "uniform, SM", "hot-90-10, SM"},
	} {
		if l, h := val(c.table, c.lo, c.col), val(c.table, c.hi, c.col); l >= h {
			t.Errorf("%s: %s's column %d (%g) is not below %s's (%g)", c.table, c.lo, c.col, l, c.hi, h)
		}
	}
	// No mesh effect: throughput and mean latency within 1%.
	for _, col := range []int{1, 2} {
		if x, m := val("Topology", "crossbar", col), val("Topology", "mesh", col); m < 0.99*x || m > 1.01*x {
			t.Errorf("topology: mesh's column %d (%g) is not within 1%% of the crossbar's (%g)", col, m, x)
		}
	}
}
