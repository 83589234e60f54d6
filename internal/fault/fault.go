package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error a failpoint returns: tests
// asserting degraded paths tell an injected failure from an organic one
// with errors.Is. Production code must never special-case it —
// an injected error has to travel the same degradation path a real one
// would, or the injection proves nothing.
var ErrInjected = errors.New("fault: injected")

// active counts enabled failpoints. It is the only state the disabled
// fast path reads: Hit is one atomic load and a branch when no failpoint
// is enabled anywhere in the process (pinned at 0 allocs/op by test,
// mirroring internal/obs's nil-tracer contract).
var active atomic.Int64

var (
	mu     sync.RWMutex
	points = map[string]*point{}
)

// point is one enabled failpoint's parsed spec plus its firing state.
type point struct {
	mu        sync.Mutex
	prob      float64       // fire probability per eligible hit (default 1)
	skip      int64         // eligible hits to ignore before the first firing
	remaining int64         // firings left; -1 = unlimited
	delay     time.Duration // sleep before acting
	action    byte          // actNone, actError or actPanic
	msg       string        // message of the error/panic
	hits      int64         // times the point actually fired
}

const (
	actNone byte = iota // delay-only point: sleep, then behave normally
	actError
	actPanic
)

// Enable arms the named failpoint with a spec. The spec is `*`-separated
// terms — modifiers followed by at most one action:
//
//	0.5               fire with probability 0.5 per eligible hit
//	skip(n)           ignore the first n eligible hits
//	count(n)          fire at most n times, then return to no-op
//	delay(d)          sleep d (time.ParseDuration) before acting
//	return            inject an error wrapping ErrInjected
//	return(msg)       inject an error with the given message
//	panic             panic at the hit site
//	panic(msg)        panic with the given message
//
// "0.5*count(3)*return(disk full)" fails roughly every other hit, three
// times total. A spec with no return/panic term is a pure delay point.
// Enabling an already-enabled name replaces its spec and firing state.
func Enable(name, spec string) error {
	if name == "" {
		return fmt.Errorf("fault: empty failpoint name")
	}
	p, err := parse(spec)
	if err != nil {
		return fmt.Errorf("fault: %s: %w", name, err)
	}
	mu.Lock()
	if _, exists := points[name]; !exists {
		active.Add(1)
	}
	points[name] = p
	mu.Unlock()
	return nil
}

// EnableSpec arms many failpoints at once from a single string of
// `name=spec` pairs separated by `;` — the grammar of the migserve
// -fault dev flag. On error, points enabled by earlier pairs stay armed.
func EnableSpec(specs string) error {
	for _, pair := range strings.Split(specs, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("fault: malformed pair %q (want name=spec)", pair)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Disable disarms the named failpoint; unknown names are a no-op.
func Disable(name string) {
	mu.Lock()
	if _, exists := points[name]; exists {
		delete(points, name)
		active.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint, returning the process to the zero-cost
// state. Tests that Enable must defer a Reset (or Disable) so failpoints
// never leak across test cases.
func Reset() {
	mu.Lock()
	active.Add(-int64(len(points)))
	points = map[string]*point{}
	mu.Unlock()
}

// Hits reports how many times the named failpoint has fired (delayed,
// errored or — counted just before the unwind — panicked) since it was
// enabled. 0 for unknown names.
func Hits(name string) int64 {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// Hit evaluates the named failpoint: a no-op returning nil unless the
// point is enabled and elects to fire, in which case it sleeps its
// delay and then panics or returns an error wrapping ErrInjected
// (or returns nil, for delay-only points). When no failpoint at all is
// enabled — the production state — Hit is a single atomic load.
func Hit(name string) error {
	if active.Load() == 0 {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.skip > 0 {
		p.skip--
		p.mu.Unlock()
		return nil
	}
	if p.remaining == 0 {
		p.mu.Unlock()
		return nil
	}
	if p.prob < 1 && rand.Float64() >= p.prob {
		p.mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.hits++
	delay, action, msg := p.delay, p.action, p.msg
	p.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	switch action {
	case actPanic:
		panic(fmt.Sprintf("fault: injected panic at %s: %s", name, msg))
	case actError:
		return fmt.Errorf("%w: %s (failpoint %s)", ErrInjected, msg, name)
	}
	return nil
}

// parse compiles one spec string into a point.
func parse(spec string) (*point, error) {
	p := &point{prob: 1, remaining: -1, action: actNone}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty spec")
	}
	for _, term := range strings.Split(spec, "*") {
		term = strings.TrimSpace(term)
		head, arg := term, ""
		if i := strings.IndexByte(term, '('); i >= 0 {
			if !strings.HasSuffix(term, ")") {
				return nil, fmt.Errorf("unbalanced parentheses in %q", term)
			}
			head, arg = term[:i], term[i+1:len(term)-1]
		}
		switch head {
		case "skip":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad skip count %q", arg)
			}
			p.skip = n
		case "count":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad count %q", arg)
			}
			p.remaining = n
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("bad delay %q", arg)
			}
			p.delay = d
		case "return":
			if p.action != actNone {
				return nil, fmt.Errorf("spec has more than one action")
			}
			p.action = actError
			if p.msg = arg; arg == "" {
				p.msg = "injected error"
			}
		case "panic":
			if p.action != actNone {
				return nil, fmt.Errorf("spec has more than one action")
			}
			p.action = actPanic
			if p.msg = arg; arg == "" {
				p.msg = "injected panic"
			}
		default:
			f, err := strconv.ParseFloat(head, 64)
			if err != nil || arg != "" || f <= 0 || f > 1 {
				return nil, fmt.Errorf("unknown term %q (want probability, skip(n), count(n), delay(d), return(msg) or panic(msg))", term)
			}
			p.prob = f
		}
	}
	return p, nil
}
