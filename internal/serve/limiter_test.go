package serve

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock drives the limiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(l *rateLimiter, c *fakeClock) *rateLimiter {
	l.now = c.now
	return l
}

// Token-bucket semantics: burst tokens up front, refill at rate, and a
// denial reports how long until the next token accrues.
func TestRateLimiterBucket(t *testing.T) {
	clock := newFakeClock()
	l := withClock(newRateLimiter(1, 2), clock)

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.allow("a")
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 1s]", retry)
	}

	// Other clients have their own buckets.
	if ok, _ := l.allow("b"); !ok {
		t.Fatal("independent client denied")
	}

	// One second refills one token — exactly one more request.
	clock.advance(time.Second)
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("request after refill denied")
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("second request after single-token refill allowed")
	}

	// Refill caps at burst no matter how long the client is idle.
	clock.advance(time.Hour)
	allowed := 0
	for i := 0; i < 5; i++ {
		if ok, _ := l.allow("a"); ok {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d after long idle, want burst (2)", allowed)
	}
}

// The bucket table must not grow without bound: once it reaches
// maxBuckets, inserting a new client evicts buckets idle long enough
// to have fully refilled.
func TestRateLimiterEviction(t *testing.T) {
	clock := newFakeClock()
	l := withClock(newRateLimiter(1, 2), clock)

	for i := 0; i < maxBuckets; i++ {
		l.allow(fmt.Sprintf("client-%d", i))
	}
	if len(l.buckets) != maxBuckets {
		t.Fatalf("buckets = %d, want %d", len(l.buckets), maxBuckets)
	}
	// Everyone idle past the 2s refill horizon: the next new client
	// triggers a sweep.
	clock.advance(10 * time.Second)
	l.allow("fresh")
	if len(l.buckets) != 1 {
		t.Fatalf("buckets after eviction = %d, want 1", len(l.buckets))
	}
	if _, ok := l.buckets["fresh"]; !ok {
		t.Fatal("fresh client evicted with the stale ones")
	}
}

// An eviction sweep must never forget live debt: a client that spent
// its burst recently survives a full-table churn of new clients, and
// its Retry-After stays exact — the sweep drops only buckets idle past
// the refill horizon, whose loss cannot grant extra requests.
func TestRateLimiterEvictionKeepsHotBuckets(t *testing.T) {
	clock := newFakeClock()
	l := withClock(newRateLimiter(1, 2), clock) // refill horizon 2s

	// Fill the table, then let everyone refill fully.
	for i := 0; i < maxBuckets; i++ {
		l.allow(fmt.Sprintf("old-%d", i))
	}
	clock.advance(3 * time.Second)

	// "hot" spends its whole burst now, going into debt...
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("hot"); !ok {
			t.Fatalf("hot burst request %d denied", i)
		}
	}
	// ...then half a second later a wave of new clients churns the
	// table: every insert is over maxBuckets, so each sweeps.
	clock.advance(500 * time.Millisecond)
	for i := 0; i < maxBuckets; i++ {
		l.allow(fmt.Sprintf("new-%d", i))
	}
	if _, ok := l.buckets["hot"]; !ok {
		t.Fatal("hot bucket evicted 0.5s after activity (horizon is 2s)")
	}
	// The stale cohort is gone — the table did not double.
	if len(l.buckets) > maxBuckets+1 {
		t.Fatalf("buckets = %d after churn, want <= %d", len(l.buckets), maxBuckets+1)
	}

	// Retry-After must still be exact: 0.5s of refill at 1 token/s
	// leaves 0.5 tokens, so the next token is exactly 500ms away.
	ok, retry := l.allow("hot")
	if ok {
		t.Fatal("hot client allowed while still in debt")
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retry = %v after churn, want exactly 500ms", retry)
	}
}

// A legitimately evicted client comes back as a stranger: full burst
// again, and once that is spent the denial math restarts exactly.
func TestRateLimiterEvictedClientReturns(t *testing.T) {
	clock := newFakeClock()
	l := withClock(newRateLimiter(1, 2), clock)

	for i := 0; i < 2; i++ {
		l.allow("comeback")
	}
	// Idle past the horizon, then a full-table insert wave evicts it.
	clock.advance(5 * time.Second)
	for i := 0; i < maxBuckets; i++ {
		l.allow(fmt.Sprintf("filler-%d", i))
	}
	l.allow("trigger") // over maxBuckets: sweeps the idle comeback bucket
	if _, ok := l.buckets["comeback"]; ok {
		t.Fatal("idle bucket survived a sweep it should have been evicted by")
	}

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("comeback"); !ok {
			t.Fatalf("returning client denied burst request %d", i)
		}
	}
	ok, retry := l.allow("comeback")
	if ok {
		t.Fatal("returning client allowed beyond burst")
	}
	if retry != time.Second {
		t.Fatalf("retry = %v for fully spent bucket, want exactly 1s", retry)
	}
}

// Rounds of client churn separated by idle gaps must keep the table
// bounded: each round's cohort refills during the gap and is swept
// when the next round's inserts hit the cap.
func TestRateLimiterChurnStaysBounded(t *testing.T) {
	clock := newFakeClock()
	l := withClock(newRateLimiter(1, 2), clock)

	for round := 0; round < 4; round++ {
		for i := 0; i < maxBuckets; i++ {
			l.allow(fmt.Sprintf("r%d-c%d", round, i))
		}
		if len(l.buckets) > maxBuckets {
			t.Fatalf("round %d: buckets = %d, want <= %d", round, len(l.buckets), maxBuckets)
		}
		clock.advance(3 * time.Second) // past the 2s refill horizon
	}
}
