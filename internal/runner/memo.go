package runner

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// memo is the singleflight LRU both topology caches share (GraphCache,
// ProfileCache): concurrent askers for one key run its load exactly
// once, and the loaded value is shared from a bounded in-memory LRU.
// Values are immutable once loaded; an evicted value stays alive for
// whoever already holds it — the memo merely stops handing it out.
type memo[V any] struct {
	max int

	mu       sync.Mutex
	entries  map[string]*list.Element // key → lru element holding *memoEntry[V]
	lru      *list.List               // front = most recently used
	inflight map[string]*memoCall[V]

	memHits, dedups, evictions atomic.Uint64
}

type memoEntry[V any] struct {
	key string
	v   V
}

// memoCall is one in-flight load all concurrent askers share.
type memoCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func newMemo[V any](max int) *memo[V] {
	return &memo[V]{
		max:      max,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*memoCall[V]),
	}
}

// get returns the value stored under key. On a miss with no load in
// flight, load runs on the calling goroutine while later askers for the
// same key wait for its result. A failed load reaches every asker that
// joined it but is not cached, so the next get retries.
func (m *memo[V]) get(key string, load func() (V, error)) (V, error) {
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		v := el.Value.(*memoEntry[V]).v
		m.mu.Unlock()
		m.memHits.Add(1)
		return v, nil
	}
	if c, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		m.dedups.Add(1)
		<-c.done
		return c.v, c.err
	}
	c := &memoCall[V]{done: make(chan struct{})}
	m.inflight[key] = c
	m.mu.Unlock()

	c.v, c.err = load()

	m.mu.Lock()
	delete(m.inflight, key)
	if c.err == nil {
		// No entry can exist: every asker since the miss joined c.
		m.entries[key] = m.lru.PushFront(&memoEntry[V]{key: key, v: c.v})
		for m.lru.Len() > m.max {
			back := m.lru.Back()
			m.lru.Remove(back)
			delete(m.entries, back.Value.(*memoEntry[V]).key)
			m.evictions.Add(1)
		}
	}
	m.mu.Unlock()
	close(c.done)
	return c.v, c.err
}

// len is the number of values currently shared.
func (m *memo[V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}
