package tpch

import (
	"testing"

	"repro/internal/mal"
	"repro/internal/minisql"
)

// BenchmarkQueryKernels times mal.RunAll of each compiled TPC-H query
// over 60K lineitem rows on one worker, no ring: the kernel share of a
// served query. Run with
//
//	go test ./internal/tpch -bench=BenchmarkQueryKernels -run=NONE -benchmem
func BenchmarkQueryKernels(b *testing.B) {
	db := GenDB(SFForLineitemRows(60_000), 1)
	for _, q := range []struct{ name, sql string }{
		{"Q6ish", Q6ishSQL}, {"Q1", Q1SQL}, {"Q3ish", Q3ishSQL},
	} {
		plan, err := minisql.Compile(q.sql, db.Schema(), "sys")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mal.RunAll(&mal.Context{Registry: mal.NewRegistry(), Catalog: db, Workers: 1}, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
