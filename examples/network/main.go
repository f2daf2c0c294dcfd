// Command network demonstrates the DataCell as a network of queries
// inside the kernel (§3.2): a fraud-screening pipeline where one query's
// output basket feeds the next query, a shared common factory serves
// several residual queries at once, a high-priority query is scheduled
// first, and an overloaded low-value query sheds load.
//
// Pipeline over a payments stream (account INT, amount DOUBLE, country VARCHAR):
//
//	payments ──► large (amount > 900) ──► foreign_large (country <> 'NL')
//	payments ──► susp_common (amount > 500) ──► round_amounts  (amount % 100 = 0)
//	                                        └─► repeat_account (account % 7 = 0 — a stand-in risk rule)
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	datacell "repro"
)

func main() {
	ctx := context.Background()
	eng, err := datacell.Open(ctx, datacell.Config{})
	if err != nil {
		log.Fatal(err)
	}
	datacell.MustExec(eng, "CREATE BASKET payments (account INT, amount DOUBLE, country VARCHAR)")

	// Stage 1 → stage 2: a chained query network. The `large_out` basket
	// is the second query's input. Both stages are plain DDL.
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY large WITH (polling = true, priority = 10) AS
		SELECT p.account AS account, p.amount AS amount, p.country AS country
		FROM [SELECT * FROM payments] AS p WHERE p.amount > 900.0`)
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY foreign_large WITH (priority = 10, depth = 1024) AS
		SELECT * FROM [SELECT * FROM large_out] AS x WHERE x.country <> 'NL'`)
	foreign, err := eng.Query("foreign_large")
	if err != nil {
		log.Fatal(err)
	}

	// A shared-factory group is DDL too: the common `amount > 500` filter
	// runs once into susp_common_out, and the residual queries share that
	// basket, so they only see what the common filter admits.
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY susp_common WITH (strategy = shared, polling = true) AS
		SELECT * FROM [SELECT * FROM payments] AS x WHERE x.amount > 500.0`)
	for _, m := range []struct{ name, residual string }{
		{"round_amounts", "x.amount % 100.0 = 0.0"},
		{"repeat_account", "x.account % 7 = 0"},
	} {
		datacell.MustExec(eng, fmt.Sprintf(`CREATE CONTINUOUS QUERY %s WITH (strategy = shared) AS
			SELECT * FROM [SELECT * FROM susp_common_out] AS x WHERE %s`, m.name, m.residual))
	}

	// A low-priority audit trail that tolerates loss under pressure.
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY audit
		WITH (priority = -5, shed_limit = 2000, polling = true) AS
		SELECT * FROM [SELECT * FROM payments] AS p`)
	audit, err := eng.Query("audit")
	if err != nil {
		log.Fatal(err)
	}

	// Feed a deterministic workload.
	rng := rand.New(rand.NewSource(11))
	countries := []string{"NL", "DE", "FR", "US"}
	const n = 100_000
	rows := make([][]datacell.Value, n)
	for i := range rows {
		rows[i] = []datacell.Value{
			datacell.Int(int64(rng.Intn(5000))),
			datacell.Float(float64(rng.Intn(100000)) / 100),
			datacell.Str(countries[rng.Intn(len(countries))]),
		}
	}
	if err := eng.Ingest(ctx, "payments", rows); err != nil {
		log.Fatal(err)
	}
	eng.Drain()

	foreignHits := 0
	for {
		select {
		case rel := <-foreign.Subscription().C():
			foreignHits += rel.NumRows()
			continue
		default:
		}
		break
	}

	fmt.Printf("ingested %d payments\n\n", n)
	large, _ := eng.Query("large")
	fmt.Printf("chained network: large → foreign_large\n")
	fmt.Printf("  large admitted        %6d\n", large.Stats().TuplesOut)
	fmt.Printf("  foreign alerts        %6d\n", foreignHits)

	fmt.Printf("\nshared factory group (common filter evaluated once):\n")
	common, _ := eng.Query("susp_common")
	fmt.Printf("  common examined       %6d, admitted %d\n",
		common.Stats().TuplesIn, common.Stats().TuplesOut)
	for _, name := range []string{"round_amounts", "repeat_account"} {
		m, _ := eng.Query(name)
		fmt.Printf("  %-20s  examined %6d, matched %d\n",
			m.Name, m.Stats().TuplesIn, m.Stats().TuplesOut)
	}

	fmt.Printf("\nlow-priority audit with load shedding:\n")
	fmt.Printf("  processed %d, shed %d (bounded backlog under burst)\n",
		audit.Stats().TuplesIn, audit.Shed())
}
