package core_test

import (
	"fmt"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/ntier"
)

// The Section III arithmetic: the paper's illustrative numbers.
func ExamplePredictOverflow() {
	p := core.PredictOverflow(1000, 400*time.Millisecond, 278)
	fmt.Printf("arrivals=%d capacity=%d dropped=%d overflow=%v\n",
		p.Arrivals, p.Capacity, p.Dropped, p.Overflows())
	// Output:
	// arrivals=400 capacity=278 dropped=122 overflow=true
}

func ExampleMinBurstForOverflow() {
	d := core.MinBurstForOverflow(1000, 278)
	fmt.Println(d.Round(time.Millisecond))
	// Output:
	// 279ms
}

// Running a full experiment: the Fig. 3 consolidation scenario, shortened.
// The simulation is deterministic, so the qualitative outcome is stable.
func ExampleNew() {
	cfg := core.Scenarios()["fig3"]
	cfg.Duration = 20 * time.Second
	cfg.Trace = false

	res, err := core.New(cfg).Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("architecture: %v\n", res.Config.NX)
	fmt.Printf("drops at web tier: %v\n", res.DropsPerServer["steady-apache"] > 0)
	fmt.Printf("drops at db tier: %v\n", res.DropsPerServer["steady-mysql"] > 0)
	fmt.Printf("VLRT observed: %v\n", res.VLRTCount > 0)
	// Output:
	// architecture: Apache-Tomcat-MySQL
	// drops at web tier: true
	// drops at db tier: false
	// VLRT observed: true
}

// The same millibottleneck against the fully asynchronous system.
func ExampleNew_async() {
	cfg := core.Scenarios()["fig3"]
	cfg.NX = ntier.NX3
	cfg.Duration = 20 * time.Second
	cfg.Trace = false

	res, err := core.New(cfg).Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("architecture: %v\n", res.Config.NX)
	fmt.Printf("total drops: %d\n", res.TotalDrops)
	fmt.Printf("VLRT: %d\n", res.VLRTCount)
	// Output:
	// architecture: Nginx-XTomcat-XMySQL
	// total drops: 0
	// VLRT: 0
}
