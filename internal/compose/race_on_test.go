//go:build race

package compose

// raceEnabled reports whether the race detector is compiled in: it slows
// the scalar oracle of the kernel sweep about tenfold, and the kernel
// shares no state for it to find.
const raceEnabled = true
