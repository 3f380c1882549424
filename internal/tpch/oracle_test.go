package tpch

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mal"
	"repro/internal/minisql"
)

// The reference evaluator below answers Q1, Q6ish and Q3ish row at a
// time over the generated columns as plain Go slices, with maps for
// the joins and grouping: it shares no code with the bat kernels or the
// mal interpreter, so a kernel bug cannot also hide in the oracle the
// engine is checked against. Sums add rows in table order, as the
// engine's plans do, so the float results are compared exactly.

// refCols indexes one generated database by "table.column".
type refCols map[string]any

func refData(sf float64, seed int64) refCols {
	cols := refCols{}
	for _, c := range generate(sf, seed) {
		cols[c.table+"."+c.name] = c.vals
	}
	return cols
}

func (c refCols) ints(name string) []int64     { return c[name].([]int64) }
func (c refCols) floats(name string) []float64 { return c[name].([]float64) }
func (c refCols) strs(name string) []string    { return c[name].([]string) }

// refQ6ish is Q6ishSQL: sum(l_extendedprice), count(*) over one year of
// shipments with a discount in [0.05, 0.07] and quantity below 24.
func refQ6ish(c refCols) [][]any {
	ship, disc, qty := c.ints("lineitem.l_shipdate"), c.floats("lineitem.l_discount"), c.ints("lineitem.l_quantity")
	price := c.floats("lineitem.l_extendedprice")
	var sum float64
	var count int64
	for i := range ship {
		if ship[i] >= 19940101 && ship[i] < 19950101 && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			sum += price[i]
			count++
		}
	}
	return [][]any{{sum, count}}
}

// refQ1 is Q1SQL: per (returnflag, linestatus) group of the rows
// shipped by 1998-09-02, sum and average quantity, sum of price,
// average discount and the row count, ordered by returnflag.
func refQ1(c refCols) [][]any {
	type acc struct {
		flag, status string
		qty          int64
		price, disc  float64
		count        int64
	}
	ship := c.ints("lineitem.l_shipdate")
	flag, status := c.strs("lineitem.l_returnflag"), c.strs("lineitem.l_linestatus")
	qty := c.ints("lineitem.l_quantity")
	price, disc := c.floats("lineitem.l_extendedprice"), c.floats("lineitem.l_discount")
	groups := map[[2]string]*acc{}
	var order []*acc
	for i := range ship {
		if ship[i] > 19980902 {
			continue
		}
		k := [2]string{flag[i], status[i]}
		g := groups[k]
		if g == nil {
			g = &acc{flag: flag[i], status: status[i]}
			groups[k] = g
			order = append(order, g)
		}
		g.qty += qty[i]
		g.price += price[i]
		g.disc += disc[i]
		g.count++
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].flag < order[j].flag })
	var rows [][]any
	for _, g := range order {
		n := float64(g.count)
		rows = append(rows, []any{g.flag, g.status, g.qty, g.price, float64(g.qty) / n, g.disc / n, g.count})
	}
	return rows
}

// refQ3ish is Q3ishSQL: revenue per order of a BUILDING customer
// placed before 1995-03-15, the ten largest first.
func refQ3ish(c refCols) [][]any {
	building := map[int64]bool{}
	seg := c.strs("customer.c_mktsegment")
	for i, ck := range c.ints("customer.c_custkey") {
		if seg[i] == "BUILDING" {
			building[ck] = true
		}
	}
	qualifies := map[int64]bool{}
	ocust, odate := c.ints("orders.o_custkey"), c.ints("orders.o_orderdate")
	for i, ok := range c.ints("orders.o_orderkey") {
		if building[ocust[i]] && odate[i] < 19950315 {
			qualifies[ok] = true
		}
	}
	revenue := map[int64]float64{}
	price := c.floats("lineitem.l_extendedprice")
	for i, ok := range c.ints("lineitem.l_orderkey") {
		if qualifies[ok] {
			revenue[ok] += price[i]
		}
	}
	var rows [][]any
	for ok, r := range revenue {
		rows = append(rows, []any{ok, r})
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := rows[i][1].(float64), rows[j][1].(float64)
		if ri != rj {
			return ri > rj
		}
		return rows[i][0].(int64) < rows[j][0].(int64)
	})
	return rows[:min(10, len(rows))]
}

// sortedRows renders rows in a canonical order, so that answers whose
// rows tie on the query's sort key compare equal.
func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

func TestReferenceOracleMatchesEngine(t *testing.T) {
	queries := []struct {
		name string
		sql  string
		ref  func(refCols) [][]any
		// orderCol is the result column the query orders by; desc
		// flips the expected direction.
		orderCol int
		desc     bool
	}{
		{"Q6ish", Q6ishSQL, refQ6ish, 0, false},
		{"Q1", Q1SQL, refQ1, 0, false},
		{"Q3ish", Q3ishSQL, refQ3ish, 1, true},
	}
	for _, size := range []float64{0.001, SFForLineitemRows(60_000)} {
		for _, seed := range []int64{1, 2} {
			db := GenDB(size, seed)
			cols := refData(size, seed)
			for _, q := range queries {
				t.Run(fmt.Sprintf("%s/sf%g/seed%d", q.name, size, seed), func(t *testing.T) {
					plan, err := minisql.Compile(q.sql, db.Schema(), "sys")
					if err != nil {
						t.Fatal(err)
					}
					vals, err := mal.RunAll(&mal.Context{Registry: mal.NewRegistry(), Catalog: db, Workers: 1}, plan)
					if err != nil {
						t.Fatal(err)
					}
					got := vals[plan.Result].(*mal.ResultSet).Rows()
					want := q.ref(cols)
					if len(want) == 0 {
						t.Fatal("reference answer is empty; the query checks nothing")
					}
					if g, w := sortedRows(got), sortedRows(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("engine and reference disagree:\n got %v\nwant %v", g, w)
					}
					for i := 1; i < len(got); i++ {
						a, b := got[i-1][q.orderCol], got[i][q.orderCol]
						inOrder := fmt.Sprint(a) <= fmt.Sprint(b)
						if q.desc {
							inOrder = a.(float64) >= b.(float64)
						}
						if !inOrder {
							t.Fatalf("rows %d and %d out of order: %v then %v", i-1, i, a, b)
						}
					}
				})
			}
		}
	}
}
