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

func ExampleTimerRef_Stop() {
	eng := sim.NewEngine(1)
	t := eng.At(sim.Second, func() { fmt.Println("never printed") })
	fmt.Println("stopped:", t.Stop())
	eng.Run(0)
	fmt.Println("pending:", t.Pending(), "stopped again:", t.Stop())
	// Output:
	// stopped: true
	// pending: false stopped again: false
}
