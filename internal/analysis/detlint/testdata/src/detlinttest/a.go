// Package detlinttest exercises detlint: wall-clock reads and global-rand
// calls are findings; vclock-driven time, duration arithmetic and seeded
// generators are not.
package detlinttest

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()          // want `time\.Now reads the host clock in a simulator package`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the host clock`
	return time.Since(start)     // want `time\.Since reads the host clock`
}

func timers() {
	<-time.After(time.Second)       // want `time\.After reads the host clock`
	t := time.NewTimer(time.Second) // want `time\.NewTimer reads the host clock`
	t.Stop()
}

func globalRand() int {
	rand.Seed(42)        // want `rand\.Seed uses the global generator`
	return rand.Intn(10) // want `rand\.Intn uses the global generator`
}

func seededRandIsFine(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func durationArithmeticIsFine(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}
