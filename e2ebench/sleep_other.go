//go:build !linux

package main

import "time"

// sleepUntilDue waits d with the runtime's timer where nanosleep is not
// available.
func sleepUntilDue(d time.Duration) { time.Sleep(d) }
