package simnet

// merge drains two channels with runtime-random choice: flagged.
func merge(a, b <-chan int) int {
	select { // want `select with 2 channel cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// poll is a single-case non-blocking receive: explicit order, fine.
func poll(a <-chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// mux is a deliberate exception.
func mux(a, b <-chan int) int {
	//lint:allow wallclock fixture demonstrates the escape hatch
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
