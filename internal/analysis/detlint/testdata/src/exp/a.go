// Package exp stands in for the exempt experiment engine: its job is to
// measure host-side run time, so detlint must stay silent here.
package exp

import "time"

func hostNow() time.Time { return time.Now() }
