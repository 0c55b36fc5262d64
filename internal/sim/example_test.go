package sim_test

import (
	"fmt"

	"mpcc/internal/sim"
)

func ExampleEngine() {
	eng := sim.NewEngine(1)
	eng.At(20*sim.Millisecond, func() { fmt.Println("second at", eng.Now()) })
	eng.At(10*sim.Millisecond, func() {
		fmt.Println("first at", eng.Now())
		eng.At(eng.Now()+5*sim.Millisecond, func() { fmt.Println("nested at", eng.Now()) })
	})
	eng.Run(0)
	// Output:
	// first at 10ms
	// nested at 15ms
	// second at 20ms
}

func ExampleTimer_Stop() {
	eng := sim.NewEngine(1)
	t := eng.At(sim.Second, func() { fmt.Println("never printed") })
	t.Stop()
	eng.Run(0)
	fmt.Println("stopped:", t.Stopped())
	// Output:
	// stopped: true
}
