package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/minisql"
)

// DB is a small, real, in-memory TPC-H-style database: actual columnar
// data generated deterministically, exposed through the minisql.Schema
// and mal.Catalog interfaces so the SQL front-end and the live ring can
// execute genuine queries over it.
type DB struct {
	SF      float64
	columns map[string]*bat.BAT // "table.column" -> BAT
	schema  minisql.MapSchema
}

// Schema exposes the table layout for the SQL planner.
func (db *DB) Schema() minisql.Schema { return db.schema }

// Bind implements mal.Catalog.
func (db *DB) Bind(schema, table, column string) (mal.Value, error) {
	b, ok := db.columns[table+"."+column]
	if !ok {
		return nil, fmt.Errorf("tpch: no column %s.%s", table, column)
	}
	return b, nil
}

// Column returns the BAT backing table.column.
func (db *DB) Column(table, column string) (*bat.BAT, bool) {
	b, ok := db.columns[table+"."+column]
	return b, ok
}

// Columns lists all "table.column" names, for partitioning across a
// live ring.
func (db *DB) Columns() []string {
	var names []string
	for k := range db.columns {
		names = append(names, k)
	}
	return names
}

// ColumnMap returns every column keyed "table.column" — the shape
// live.NewRing expects. The map is a copy; the BATs are shared.
func (db *DB) ColumnMap() map[string]*bat.BAT {
	out := make(map[string]*bat.BAT, len(db.columns))
	for k, b := range db.columns {
		out[k] = b
	}
	return out
}

// Rows reports the row count of a table.
func (db *DB) Rows(table string) int {
	for k, b := range db.columns {
		if len(k) > len(table) && k[:len(table)] == table && k[len(table)] == '.' {
			return b.Len()
		}
	}
	return 0
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var flags = []string{"A", "N", "R"}
var statuses = []string{"F", "O"}
var nations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
	"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
	"KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}

// date encodes y/m/d as yyyymmdd, the integer date surrogate the engine
// uses for range predicates.
func date(y, m, d int) int64 { return int64(y*10000 + m*100 + d) }

// randDate draws a shipping-era date between 1992 and 1998.
func randDate(rng *rand.Rand) int64 {
	return date(1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28))
}

// column is one generated column as a plain Go slice: []int64,
// []float64 or []string.
type column struct {
	table, name string
	vals        any
	sorted      bool // ascending (sequentially generated) keys
}

// GenDB generates a deterministic database. sf scales row counts
// (sf=0.001 gives lineitem≈6000 rows, fine for tests and examples).
// Sorted key columns are flagged so range and point predicates over
// them hit the kernel's binary-search fast path instead of a scan.
func GenDB(sf float64, seed int64) *DB {
	db := &DB{
		SF:      sf,
		columns: map[string]*bat.BAT{},
		schema:  minisql.MapSchema{},
	}
	for _, c := range generate(sf, seed) {
		name := c.table + "." + c.name
		var b *bat.BAT
		switch v := c.vals.(type) {
		case []int64:
			b = bat.MakeInts(name, v)
		case []float64:
			b = bat.MakeFloats(name, v)
		case []string:
			b = bat.MakeStrs(name, v)
		}
		b.Tail().SetSorted(c.sorted)
		db.add(c.table, c.name, b)
	}
	return db
}

// generate draws the database's columns, in schema order, from one
// seeded generator.
func generate(sf float64, seed int64) []column {
	rng := rand.New(rand.NewSource(seed))
	nCust := scaled(150_000, sf)
	nOrders := scaled(1_500_000, sf)
	nLine := scaled(6_000_000, sf)
	nSupp := scaled(10_000, sf)
	nNation := len(nations)

	// nation
	nk := make([]int64, nNation)
	nname := make([]string, nNation)
	nregion := make([]int64, nNation)
	for i := 0; i < nNation; i++ {
		nk[i] = int64(i)
		nname[i] = nations[i]
		nregion[i] = int64(i % 5)
	}

	// supplier
	sk := make([]int64, nSupp)
	snat := make([]int64, nSupp)
	for i := range sk {
		sk[i] = int64(i + 1)
		snat[i] = int64(rng.Intn(nNation))
	}

	// customer
	ck := make([]int64, nCust)
	cnat := make([]int64, nCust)
	cseg := make([]string, nCust)
	cbal := make([]float64, nCust)
	for i := range ck {
		ck[i] = int64(i + 1)
		cnat[i] = int64(rng.Intn(nNation))
		cseg[i] = segments[rng.Intn(len(segments))]
		cbal[i] = float64(rng.Intn(1000000))/100 - 999
	}

	// orders
	ok := make([]int64, nOrders)
	ocust := make([]int64, nOrders)
	odate := make([]int64, nOrders)
	oprice := make([]float64, nOrders)
	for i := range ok {
		ok[i] = int64(i + 1)
		ocust[i] = int64(rng.Intn(nCust) + 1)
		odate[i] = randDate(rng)
		oprice[i] = float64(1000+rng.Intn(400000)) / 100
	}

	// lineitem
	lok := make([]int64, nLine)
	lqty := make([]int64, nLine)
	lprice := make([]float64, nLine)
	ldisc := make([]float64, nLine)
	ltax := make([]float64, nLine)
	lflag := make([]string, nLine)
	lstatus := make([]string, nLine)
	lship := make([]int64, nLine)
	lsupp := make([]int64, nLine)
	for i := range lok {
		lok[i] = int64(rng.Intn(nOrders) + 1)
		lqty[i] = int64(1 + rng.Intn(50))
		lprice[i] = float64(90000+rng.Intn(10000)) / 100
		ldisc[i] = float64(rng.Intn(11)) / 100
		ltax[i] = float64(rng.Intn(9)) / 100
		lflag[i] = flags[rng.Intn(len(flags))]
		lstatus[i] = statuses[rng.Intn(len(statuses))]
		lship[i] = randDate(rng)
		lsupp[i] = int64(rng.Intn(nSupp) + 1)
	}

	return []column{
		{"nation", "n_nationkey", nk, true},
		{"nation", "n_name", nname, false},
		{"nation", "n_regionkey", nregion, false},
		{"supplier", "s_suppkey", sk, true},
		{"supplier", "s_nationkey", snat, false},
		{"customer", "c_custkey", ck, true},
		{"customer", "c_nationkey", cnat, false},
		{"customer", "c_mktsegment", cseg, false},
		{"customer", "c_acctbal", cbal, false},
		{"orders", "o_orderkey", ok, true},
		{"orders", "o_custkey", ocust, false},
		{"orders", "o_orderdate", odate, false},
		{"orders", "o_totalprice", oprice, false},
		{"lineitem", "l_orderkey", lok, false},
		{"lineitem", "l_quantity", lqty, false},
		{"lineitem", "l_extendedprice", lprice, false},
		{"lineitem", "l_discount", ldisc, false},
		{"lineitem", "l_tax", ltax, false},
		{"lineitem", "l_returnflag", lflag, false},
		{"lineitem", "l_linestatus", lstatus, false},
		{"lineitem", "l_shipdate", lship, false},
		{"lineitem", "l_suppkey", lsupp, false},
	}
}

// SFForLineitemRows maps a target lineitem row count onto the scale
// factor that produces it (lineitem is 6M rows at SF 1). The
// fragmentation experiments size their swept column with this.
func SFForLineitemRows(rows int) float64 {
	return float64(rows) / 6_000_000
}

func scaled(rowsSF1 int, sf float64) int {
	n := int(float64(rowsSF1) * sf)
	if n < 10 {
		n = 10
	}
	return n
}

func (db *DB) add(table, column string, b *bat.BAT) {
	db.columns[table+"."+column] = b
	db.schema[table] = append(db.schema[table], column)
}

// Q1SQL is a runnable rendition of TPC-H Q1 for the mini engine.
const Q1SQL = `select l_returnflag, l_linestatus,
	sum(l_quantity) as sum_qty,
	sum(l_extendedprice) as sum_base_price,
	avg(l_quantity) as avg_qty,
	avg(l_discount) as avg_disc,
	count(*) as count_order
from lineitem
where l_shipdate <= 19980902
group by l_returnflag, l_linestatus
order by l_returnflag`

// Q6ishSQL is a runnable rendition of Q6's selective aggregate (the
// engine computes sum(price) over the qualifying rows; the price*(1-disc)
// product of full Q6 needs expression support the mini parser omits).
const Q6ishSQL = `select sum(l_extendedprice), count(*)
from lineitem
where l_shipdate >= 19940101 and l_shipdate < 19950101
	and l_discount between 0.05 and 0.07 and l_quantity < 24`

// Q3ishSQL is a runnable join/aggregate in the spirit of Q3.
const Q3ishSQL = `select o_orderkey, sum(l_extendedprice) as revenue
from customer, orders, lineitem
where c_mktsegment = 'BUILDING'
	and c_custkey = o_custkey and l_orderkey = o_orderkey
	and o_orderdate < 19950315
group by o_orderkey
order by revenue desc limit 10`
