// Command linearroad runs a scaled Linear Road benchmark (the workload the
// paper reports running "out of the box", §5) through the DataCell engine:
// synthetic expressway traffic streams in, per-minute segment statistics
// run as a windowed continuous SQL query, and a toll/accident processor
// issues notifications. The run is validated tuple-for-tuple against an
// oracle implementation and reports the response-time distribution.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/linearroad"
)

func main() {
	xways := flag.Int("xways", 1, "number of expressways (the benchmark's L factor)")
	vehicles := flag.Int("vehicles", 200, "vehicles per expressway")
	duration := flag.Int("duration", 600, "simulated seconds")
	seed := flag.Int64("seed", 42, "traffic generator seed")
	flag.Parse()

	cfg := linearroad.GenConfig{
		XWays:            *xways,
		VehiclesPerXWay:  *vehicles,
		DurationSec:      *duration,
		Seed:             *seed,
		AccidentEverySec: 120,
	}
	fmt.Printf("Linear Road (scaled): L=%d, %d vehicles/xway, %d simulated seconds\n",
		cfg.XWays, cfg.VehiclesPerXWay, cfg.DurationSec)

	records := linearroad.Generate(cfg)
	fmt.Printf("generated %d position reports\n", len(records))

	want := linearroad.Reference(records)

	sys, err := linearroad.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := sys.Run(records); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	got := sys.Notifications()

	// Validation.
	if len(got) != len(want) {
		log.Fatalf("VALIDATION FAILED: %d notifications, oracle says %d", len(got), len(want))
	}
	var tolls, alerts, revenue int64
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("VALIDATION FAILED at notification %d: got %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Accident {
			alerts++
		}
		if got[i].Toll > 0 {
			tolls++
			revenue += got[i].Toll
		}
	}

	fmt.Printf("\nprocessed in %v (%.0f reports/s)\n", elapsed.Round(time.Millisecond),
		float64(len(records))/elapsed.Seconds())
	fmt.Printf("notifications: %d (tolls charged: %d, accident alerts: %d, revenue: %d)\n",
		len(got), tolls, alerts, revenue)
	fmt.Printf("per-second-batch response time: %s\n", sys.Latency.Summary())
	maxResp := time.Duration(sys.Latency.Max())
	fmt.Println("validation vs oracle: PASS (exact match)")
	if maxResp >= 5*time.Second {
		log.Fatalf("max response %v vs the benchmark's 5s bound: FAIL", maxResp)
	}
	fmt.Printf("max response %v vs the benchmark's 5s bound: PASS\n", maxResp)
}
