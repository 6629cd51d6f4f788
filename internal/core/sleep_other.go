//go:build !linux

package core

import "time"

// sleepFor blocks the calling goroutine for d, to the runtime timers'
// resolution (see sleep_linux.go for why that is not enough there).
func sleepFor(d time.Duration) { time.Sleep(d) }
