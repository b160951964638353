package main

import (
	"syscall"
	"time"
)

// sleepUntilDue blocks the calling thread in nanosleep for d. The
// runtime's time.Sleep waits in the network poller, whose epoll timeout
// counts whole milliseconds, so it wakes about 0.5 ms late at p50;
// nanosleep wakes about 0.08 ms late on the same host. The generator's
// lateness counts in every latency, which runs from the due time.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
