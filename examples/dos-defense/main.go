// dos-defense walks through the paper's availability story (sections 3
// and 6): it sweeps the number of attackers to show Figure 1's queuing
// blow-up, then compares the four partition-enforcement designs under a
// duty-cycled attack (Figure 5), and finally prints the Table 2 cost
// model that justifies SIF.
package main

import (
	"context"
	"fmt"
	"log"

	"ibasec"
)

func main() {
	base := ibasec.DefaultConfig()
	base.Duration = 10 * ibasec.Millisecond
	base.Warmup = ibasec.Millisecond
	base.RealtimeLoad = 0.7
	base.BestEffortLoad = 0.65

	fmt.Println("== Figure 1: one compromised node is enough ==")
	for _, class := range []ibasec.Class{ibasec.ClassRealtime, ibasec.ClassBestEffort} {
		rows, err := ibasec.Fig1(context.Background(), nil, class, 4, base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s traffic:\n", class)
		for _, r := range rows {
			bar := ""
			for i := 0; i < int(r.QueuingUS/5); i++ {
				bar += "#"
			}
			fmt.Printf("  %d attacker(s): queuing %7.2f us %s\n", r.Attackers, r.QueuingUS, bar)
		}
	}

	fmt.Println()
	fmt.Println("== Figure 5: enforcement designs under a one-percent-duty DoS ==")
	f5 := base
	f5.AttackCycle = f5.Duration / 4
	rows, err := ibasec.Fig5(context.Background(), nil, []float64{0.4, 0.6}, 0.01, f5)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("  load %2.0f%%  %-11s total %7.2f us   filtered %4d   leaked to victims %d\n",
			r.Load*100, r.Mode, r.TotalUS, r.Dropped, r.AttackHits)
	}

	fmt.Println()
	fmt.Println("== Table 2: why SIF — the cost model ==")
	for _, r := range ibasec.Table2(4, 0.01, 2) {
		fmt.Printf("  %-4s mem/switch %6.2f entries   lookups/packet %.4f (linear scan)\n",
			r.Mode, r.MemPerSwitch, r.LookupLinear)
	}
	fmt.Println("\nSIF pays the IF memory price but looks up only while an attack is live.")
}
