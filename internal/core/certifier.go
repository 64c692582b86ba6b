package core

import (
	"errors"
	"sync"

	"repro/internal/engine"
)

// Certifier implements first-committer-wins certification over the totally
// ordered write-set stream (§3.3: the Postgres-R / Middle-R family).
//
// Deployed replicated (one instance per replica, fed identical ordered
// input, reaching identical decisions) it has no single point of failure.
// Deployed centralized (one shared instance) it is the SPOF whose outage
// §3.2 complains about; Fail/Repair model it.
type Certifier struct {
	mu sync.Mutex
	// lastWriter maps a row key to the ordered position that last wrote
	// it (the certifier's "soft state").
	lastWriter map[string]uint64
	// decided caches per-position decisions: a centralized certifier is
	// consulted once per replica for the same ordered transaction and
	// must answer identically every time.
	decided map[uint64]bool
	// high is the highest position decided; lostThrough is its value at
	// the last Fail: every write the failure forgot is at or below it.
	high, lostThrough uint64
	failed            bool
	decisions         uint64
}

// ErrCertifierDown is returned while a centralized certifier is failed —
// which stalls every commit in the cluster (§3.2).
var ErrCertifierDown = errors.New("core: certifier is down")

// NewCertifier creates an empty certifier.
func NewCertifier() *Certifier {
	return &Certifier{lastWriter: make(map[string]uint64), decided: make(map[uint64]bool)}
}

// Certify decides one transaction: it commits iff no key in its write set
// was written by a transaction certified after the submitter's snapshot
// position. On commit the certifier records the write positions. A
// transaction ordered after a failure whose snapshot predates the writes
// the failure forgot aborts: they cannot be checked, and may conflict.
func (c *Certifier) Certify(seq, snapshot uint64, ws *engine.WriteSet) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return false, ErrCertifierDown
	}
	if d, ok := c.decided[seq]; ok {
		return d, nil // repeat consultation for the same ordered txn
	}
	c.decisions++
	c.high = max(c.high, seq)
	commit := seq <= c.lostThrough || snapshot >= c.lostThrough
	keys := ws.Keys()
	for i := 0; commit && i < len(keys); i++ {
		if last, ok := c.lastWriter[keys[i]]; ok && last > snapshot {
			commit = false
		}
	}
	if commit {
		for _, key := range keys {
			c.lastWriter[key] = seq
		}
	}
	c.decided[seq] = commit
	return commit, nil
}

// Decisions returns the number of certifications performed.
func (c *Certifier) Decisions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions
}

// StateSize returns the number of tracked keys (the soft state that must be
// rebuilt after a centralized certifier failure).
func (c *Certifier) StateSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lastWriter)
}

// Fail takes the certifier down and discards its soft state — the
// centralized-component failure of §3.2.
func (c *Certifier) Fail() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed = true
	c.lostThrough = c.high
	c.lastWriter = make(map[string]uint64)
	c.decided = make(map[uint64]bool)
}

// Repair brings the certifier back up with empty soft state. Transactions
// whose snapshot predates the outage abort (see Certify) rather than be
// certified against only the writes ordered after the repair.
func (c *Certifier) Repair() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed = false
}
