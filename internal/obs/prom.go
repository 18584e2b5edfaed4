package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// Prometheus text-format exposition, stdlib only. The registry is a
// deliberately small surface: counters (cumulative across rounds),
// gauges (last round's value), and log2-bucketed histograms (the
// paper's reducer-input q distribution). Metric values are updated with
// atomics so scrapes never contend with a running round.

// metric is anything the registry can render.
type metric interface {
	name() string
	help() string
	write(w io.Writer)
}

// Registry holds metrics in registration order and renders them in
// Prometheus text format.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	index   map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]metric)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.index[m.name()]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name()))
	}
	r.index[m.name()] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers (or returns the existing) cumulative counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	if m, ok := r.index[name]; ok {
		r.mu.Unlock()
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a counter", name))
		}
		return c
	}
	r.mu.Unlock()
	c := &Counter{nm: name, hp: help}
	r.register(c)
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	if m, ok := r.index[name]; ok {
		r.mu.Unlock()
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a gauge", name))
		}
		return g
	}
	r.mu.Unlock()
	g := &Gauge{nm: name, hp: help}
	r.register(g)
	return g
}

// Histogram registers (or returns the existing) log2-bucketed
// histogram with buckets le=1,2,4,…,2^(nBuckets-1),+Inf.
func (r *Registry) Histogram(name, help string, nBuckets int) *Histogram {
	r.mu.Lock()
	if m, ok := r.index[name]; ok {
		r.mu.Unlock()
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
		}
		return h
	}
	r.mu.Unlock()
	if nBuckets < 1 {
		nBuckets = 1
	}
	h := &Histogram{nm: name, hp: help, buckets: make([]atomic.Int64, nBuckets)}
	r.register(h)
	return h
}

// WritePrometheus renders every registered metric in text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, m := range metrics {
		m.write(bw)
	}
	return bw.Flush()
}

// WritePrometheusFile writes WritePrometheus output to path atomically.
func (r *Registry) WritePrometheusFile(path string) error {
	return writeFileAtomic(path, r.WritePrometheus)
}

// Counter is a cumulative, monotonically increasing metric.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) name() string { return c.nm }
func (c *Counter) help() string { return c.hp }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.nm, c.hp, c.nm, c.nm, c.v.Load())
}

// Gauge is a metric that can go up and down; rounds Set it to their
// latest value.
type Gauge struct {
	nm, hp string
	bits   atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) name() string { return g.nm }
func (g *Gauge) help() string { return g.hp }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", g.nm, g.hp, g.nm, g.nm, g.Value())
}

// Histogram counts observations into log2 buckets: bucket i has upper
// bound 2^i (le=1,2,4,…), with an implicit +Inf bucket. Built for
// integer size distributions (reducer input sizes), observed in bulk
// from a per-round profile.
type Histogram struct {
	nm, hp  string
	buckets []atomic.Int64 // raw per-bucket counts; write() accumulates
	sum     atomic.Int64
	count   atomic.Int64
}

// ObserveN records n observations of value v.
func (h *Histogram) ObserveN(v int64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := 0
	for ub := int64(1); ub < v && i < len(h.buckets)-1; ub <<= 1 {
		i++
	}
	h.buckets[i].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
}

func (h *Histogram) name() string { return h.nm }
func (h *Histogram) help() string { return h.hp }
func (h *Histogram) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.nm, h.hp, h.nm)
	var cum int64
	ub := int64(1)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.nm, ub, cum)
		ub <<= 1
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, h.count.Load())
	fmt.Fprintf(w, "%s_sum %d\n", h.nm, h.sum.Load())
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.count.Load())
}

// Server is a debug/metrics HTTP endpoint started by Serve.
type Server struct {
	Addr string // actual listen address (useful with ":0")
	ln   net.Listener
	srv  *http.Server
}

// Serve mounts /metrics (the registry), /debug/pprof/* and /debug/vars
// (expvar) on addr and serves in a background goroutine. Pass ":0" to
// pick a free port; read the chosen address from Server.Addr. The
// default http mux is untouched — handlers are registered on a private
// mux so tests can run many servers.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the server and releases its port.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
