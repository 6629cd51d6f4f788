//go:build linux

package core

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling goroutine for d. time.Sleep will not do for
// waits under a millisecond: when every P is idle the runtime parks in
// epoll_wait, whose timeout is whole milliseconds, so a 200 µs timer fires
// after 1.1 ms. nanosleep is armed on a high-resolution timer.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
