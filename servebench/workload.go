package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/bat"
	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Deployment and load shape shared by every workload. None of these is
// a behaviour knob of the ring: the ring, router and server run their
// Default*Config values, so a later change that derives or deletes a
// knob is measured as it ships.
const (
	// clients is the number of closed-loop sessions, one connection
	// each: one per core of the 2-core host the baseline was taken on.
	clients = 2
	// ringNodes is the single-ring size of the TPC-H workloads.
	ringNodes = 3
	// lineitemRows sizes the TPC-H data so that it fits the default
	// 64 MiB per-node hot-set cache (about 6 MB of columns in total).
	lineitemRows = 60_000
	// coldCacheBytes is cold-scan's per-node cache budget: non-zero, but
	// far below the ~6 MB the mix reads, so most pins wait on the ring.
	coldCacheBytes = 1 << 20
	// queryDeadline is the per-query deadline. It is longer than the
	// default ResendTimeout (2 s), so a pin rescued by a resend counts
	// as slow, not failed.
	queryDeadline = 3 * time.Second
	// updateEvery is update-mix's fixed write rate (5 updates/s).
	updateEvery = 200 * time.Millisecond
	// updateColumn is rewritten by update-mix: only Q3ish reads it, so
	// reads that touch written data run beside reads that do not. Of the
	// columns only Q3ish reads, this one shows the post-update hang on
	// every run; the orders columns hang about once per 8 s, at random.
	updateColumn = "customer.c_mktsegment"
	// zipfTables exceeds the router's default HotFragments cap (64), so
	// tiering keeps promoting and demoting while the run is measured.
	zipfTables = 256
	zipfRows   = 1024
	zipfTheta  = 1.1
)

// spec names one workload and the deployment values it sets.
type spec struct {
	name       string
	tiered     bool // ServeRouter over the default two-tier Router
	cacheBytes int  // per-node hot-set budget; 0 keeps the default
	writer     bool // one writer calls UpdateColumn at updateEvery
}

var specs = []spec{
	{name: "hot-mix"},
	{name: "cold-scan", cacheBytes: coldCacheBytes},
	{name: "update-mix", writer: true},
	{name: "zipf-tiered", tiered: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything the seed generates: the data the ring receives,
// the SQL each client sends, and the oracle every answer is checked
// against. Nothing here reads the ring.
type inputs struct {
	columns map[string]*bat.BAT
	schema  minisql.Schema
	catalog mal.Catalog // the same data, bound locally with no ring
	// mix lists every distinct query text; warm-up sends each once.
	mix []string
	// stream returns client c's query generator.
	stream func(c int) func() string
	// expect maps a query text to the canonical form of its answer.
	expect map[string]string
	// valuesOnly compares rows but not column names: the zipf oracle is
	// a generator checksum, which has no names.
	valuesOnly bool
	// probe names the columns the traced run fetches directly.
	probe []string
}

func genInputs(s spec, seed int64) (*inputs, error) {
	if s.tiered {
		return zipfInputs(seed), nil
	}
	return tpchInputs(seed)
}

// tpchInputs builds the TPC-H mix. Every expected answer is mal.RunAll
// of the compiled (not rewritten) plan against the local tpch.DB: an
// oracle that never touches the ring, so a ring that is wrong every
// time is still caught.
func tpchInputs(seed int64) (*inputs, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(lineitemRows), seed)
	in := &inputs{
		columns: db.ColumnMap(),
		schema:  db.Schema(),
		catalog: db,
		mix:     []string{tpch.Q6ishSQL, tpch.Q1SQL, tpch.Q3ishSQL},
		expect:  map[string]string{},
		probe:   []string{"lineitem.l_extendedprice", "lineitem.l_shipdate", "lineitem.l_quantity", "lineitem.l_discount"},
	}
	for _, sql := range in.mix {
		rs, err := localExec(sql, in.schema, in.catalog)
		if err != nil {
			return nil, fmt.Errorf("oracle for %.30q: %w", sql, err)
		}
		in.expect[sql] = canonical(rs)
	}
	mix := in.mix
	in.stream = func(c int) func() string {
		i := c
		return func() string {
			sql := mix[i%len(mix)]
			i++
			return sql
		}
	}
	return in, nil
}

// zipfInputs builds zipf-tiered: single-column tables tNNN(c) queried
// with select sum(c), drawn Zipf(θ). Answers are checked against the
// generator's own checksums.
func zipfInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	schema := minisql.MapSchema{}
	in := &inputs{
		columns:    map[string]*bat.BAT{},
		schema:     schema,
		expect:     map[string]string{},
		valuesOnly: true,
	}
	for k := 0; k < zipfTables; k++ {
		table := zipfTable(k)
		vals := make([]int64, zipfRows)
		var sum int64
		for i := range vals {
			vals[i] = rng.Int63n(1 << 20)
			sum += vals[i]
		}
		schema[table] = []string{"c"}
		in.columns[table+".c"] = bat.MakeInts(table+".c", vals)
		sql := zipfSQL(k)
		in.mix = append(in.mix, sql)
		in.expect[sql] = canonicalRows([][]any{{sum}})
	}
	in.catalog = columnCatalog(in.columns)
	for k := 0; k < 4; k++ {
		in.probe = append(in.probe, zipfColumn(k))
	}
	pick := workload.ZipfPick(zipfTables, zipfTheta)
	in.stream = func(c int) func() string {
		crng := rand.New(rand.NewSource(seed*clients + int64(c)))
		return func() string { return zipfSQL(pick(crng)) }
	}
	return in
}

func zipfTable(k int) string  { return fmt.Sprintf("t%03d", k) }
func zipfColumn(k int) string { return zipfTable(k) + ".c" }
func zipfSQL(k int) string    { return "select sum(c) from " + zipfTable(k) }

// columnCatalog binds "table.column" keys for mal.RunAll with no ring.
type columnCatalog map[string]*bat.BAT

func (c columnCatalog) Bind(_, table, column string) (mal.Value, error) {
	b, ok := c[table+"."+column]
	if !ok {
		return nil, fmt.Errorf("no column %s.%s", table, column)
	}
	return b, nil
}

// localExec compiles sql and runs the plan against catalog in-process.
func localExec(sql string, schema minisql.Schema, catalog mal.Catalog) (*mal.ResultSet, error) {
	plan, err := minisql.Compile(sql, schema, "sys")
	if err != nil {
		return nil, err
	}
	return runLocal(plan, catalog)
}

func runLocal(plan *mal.Plan, catalog mal.Catalog) (*mal.ResultSet, error) {
	vals, err := mal.RunAll(&mal.Context{Registry: mal.NewRegistry(), Catalog: catalog, Workers: 1}, plan)
	if err != nil {
		return nil, err
	}
	rs, ok := vals[plan.Result].(*mal.ResultSet)
	if !ok {
		return nil, fmt.Errorf("plan produced %T, want a result set", vals[plan.Result])
	}
	return rs, nil
}

// canonical renders a result as its sorted rows, so that two answers
// compare equal exactly when they hold the same rows with the same
// values, whatever order the engine emitted rows of equal sort key in.
func canonical(rs *mal.ResultSet) string {
	return strings.Join(rs.Names, ",") + "\n" + canonicalRows(rs.Rows())
}

func canonicalRows(rows [][]any) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = fmt.Sprint(row)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// check compares an answer with the oracle.
func (in *inputs) check(sql string, rs *mal.ResultSet) error {
	want, ok := in.expect[sql]
	if !ok {
		return fmt.Errorf("no oracle answer for %.40q", sql)
	}
	got := canonical(rs)
	if in.valuesOnly {
		got = canonicalRows(rs.Rows())
	}
	if got != want {
		return fmt.Errorf("wrong answer for %.40q:\n got %q\nwant %q", sql, got, want)
	}
	return nil
}

// stack is one served deployment: the ring (or router), its server,
// and the listener addresses the clients dial.
type stack struct {
	query  *live.Ring   // the ring queries settle on
	rings  []*live.Ring // every ring, for counters
	router *live.Router
	srv    *server.Server
	addrs  []string // one per query-ring node
}

// setup stands the deployment up and returns once every client-facing
// listener has accepted a handshake. Only deployment values are set:
// node count, TCP transport, listen address (the server default) and,
// on cold-scan, the per-node cache budget.
func setup(s spec, in *inputs) (*stack, error) {
	st := &stack{}
	var err error
	if s.tiered {
		rc := live.DefaultRouterConfig()
		rc.Hot.Transport = live.TCP
		rc.Cold.Transport = live.TCP
		if st.router, err = live.NewRouter(in.columns, in.schema, rc); err != nil {
			return nil, err
		}
		st.query = st.router.QueryRing()
		for t := 0; t < st.router.Tiers(); t++ {
			st.rings = append(st.rings, st.router.Tier(live.RingID(t)))
		}
		st.srv, err = server.ServeRouter(st.router, server.DefaultConfig())
	} else {
		cfg := live.DefaultConfig()
		cfg.Transport = live.TCP
		if s.cacheBytes > 0 {
			cfg.CacheBytes = s.cacheBytes
		}
		if st.query, err = live.NewRing(ringNodes, in.columns, in.schema, cfg); err != nil {
			return nil, err
		}
		st.rings = []*live.Ring{st.query}
		st.srv, err = server.Serve(st.query, server.DefaultConfig())
	}
	if err != nil {
		st.close()
		return nil, err
	}
	// ServeRouter lists the query (hot) ring's listeners first.
	st.addrs = st.srv.Addrs()[:st.query.Size()]
	for _, addr := range st.addrs {
		cl, err := dcclient.Dial(addr)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listener %s: %w", addr, err)
		}
		cl.Close()
	}
	return st, nil
}

// close tears the deployment down. The rings close first: that fails
// any query still parked on a pin, so the server's drain does not wait
// out its timeout on a hung query.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	} else if st.query != nil {
		st.query.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
}

// updateOnce rewrites updateColumn with a fresh copy of its current
// values: a new version for the ring to install and circulate, with
// every answer unchanged, so reads stay checkable against the oracle.
func (st *stack) updateOnce() error {
	_, err := st.query.UpdateColumn(updateColumn, func(b *bat.BAT) *bat.BAT { return b.Copy() })
	return err
}
