package fabric

import (
	"sort"
	"strings"
	"sync"
	"time"

	"toto/internal/obs"
)

// NamingService is a highly available key-value metastore, modeled on
// Service Fabric's Naming Service (§3.3.1). Toto stores the serialized
// model XML in it, and the persisted-metric protocol (§3.3.2) round-trips
// previously reported disk loads through it so a newly promoted primary
// on a different node sees the same disk usage the old primary reported.
//
// Every write bumps a monotonically increasing version so readers can
// detect changes cheaply (GetIfChanged). The store is safe for
// concurrent use: in the deployed system every node's RgManager reads it
// independently.
type NamingService struct {
	mu      sync.RWMutex
	entries map[string]namingEntry
	version int64
	reads   int64

	// registry counters (nil-safe no-ops when observability is off)
	cReads        *obs.Counter
	cWrites       *obs.Counter
	cWriteRetries *obs.Counter
	cWriteDrops   *obs.Counter

	// fault injection (set by the owning cluster; nil = writes never
	// fail). backoffFn computes the jittered backoff delay charged for a
	// failed attempt, letting the cluster account it without the store
	// owning a clock or RNG.
	injector  FaultInjector
	backoffFn func(attempt int) time.Duration
}

type namingEntry struct {
	value   []byte
	version int64
}

// NewNamingService returns an empty metastore.
func NewNamingService() *NamingService {
	return &NamingService{entries: make(map[string]namingEntry)}
}

// instrument attaches registry counters for reads, writes, write
// retries, and dropped writes. Called by the owning cluster; nil
// counters keep the store uninstrumented.
func (n *NamingService) instrument(reads, writes, writeRetries, writeDrops *obs.Counter) {
	n.cReads = reads
	n.cWrites = writes
	n.cWriteRetries = writeRetries
	n.cWriteDrops = writeDrops
}

// setInjector installs the fault injector consulted on every write,
// with the backoff accounting hook charged for each retried attempt.
func (n *NamingService) setInjector(fi FaultInjector, backoffFn func(attempt int) time.Duration) {
	n.injector = fi
	n.backoffFn = backoffFn
}

// Put stores value under key and returns the new entry version. The value
// is copied, so callers may reuse their buffer. Under fault injection the
// write is retried with exponential backoff up to the retry budget; a
// write that exhausts it is dropped and Put returns 0 — callers poll the
// store by version, so a dropped model write is repaired by the writer's
// next refresh rather than by blocking the simulation.
func (n *NamingService) Put(key string, value []byte) int64 {
	if n.injector != nil {
		ok := false
		for attempt := 1; attempt <= retryMaxAttempts; attempt++ {
			if !n.injector.NamingWriteFails(key, attempt) {
				ok = true
				break
			}
			if attempt < retryMaxAttempts {
				n.cWriteRetries.Inc()
				n.backoffFn(attempt)
			}
		}
		if !ok {
			n.cWriteDrops.Inc()
			return 0
		}
	}
	n.cWrites.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.version++
	n.entries[key] = namingEntry{value: append([]byte(nil), value...), version: n.version}
	return n.version
}

// CurrentVersion returns the store's global write version.
func (n *NamingService) CurrentVersion() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.version
}

// MaxEntryVersion returns the largest per-entry version currently stored
// (0 when empty). Structurally it can never exceed CurrentVersion; the
// continuous invariant checker asserts exactly that.
func (n *NamingService) MaxEntryVersion() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var max int64
	for _, e := range n.entries {
		if e.version > max {
			max = e.version
		}
	}
	return max
}

// Get returns the value and version stored under key. The returned slice
// is a copy.
func (n *NamingService) Get(key string) (value []byte, version int64, ok bool) {
	// Entry versions start at 1, so no stored entry matches version 0.
	return n.GetIfChanged(key, 0)
}

// GetIfChanged is a Get conditioned on the version the caller already
// holds: when the entry under key is still at version have, it returns
// that version with a nil value and copies nothing; otherwise it returns
// a copy of the value, as Get does. Either way it counts as one read, so
// a poller that skips unchanged values (RgManager re-reads the model XML
// every 15 minutes) loads the store exactly as often as one that does
// not. ok is false when key is absent.
func (n *NamingService) GetIfChanged(key string, have int64) (value []byte, version int64, ok bool) {
	n.cReads.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reads++
	e, ok := n.entries[key]
	if !ok {
		return nil, 0, false
	}
	if e.version == have {
		return nil, e.version, true
	}
	return append([]byte(nil), e.value...), e.version, true
}

// Delete removes key. Deleting an absent key is a no-op.
func (n *NamingService) Delete(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.entries, key)
}

// Keys returns all keys with the given prefix in sorted order.
func (n *NamingService) Keys(prefix string) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for k := range n.entries {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Reads returns the cumulative number of Get and GetIfChanged calls
// served — the load the metastore absorbs from polling readers (each
// node's RgManager re-reads the model XML every refresh interval,
// §3.3.1).
func (n *NamingService) Reads() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.reads
}

// Len returns the number of stored entries.
func (n *NamingService) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.entries)
}
