package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one netartd process started with its default configuration;
// only the listen address is set.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon starts bin on a free loopback port and waits until it
// answers /v1/healthz. A port taken between probe and bind makes the
// process exit; that is retried on a new port.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("probe free port: %w", err)
		}
		addr := l.Addr().String()
		l.Close()
		d := &daemon{cmd: exec.Command(bin, "-addr", addr), base: "http://" + addr, exited: make(chan struct{})}
		// The daemon dies with the benchmark even if the benchmark is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() { _ = d.cmd.Wait(); close(d.exited) }()
		if lastErr = d.awaitHealthy(15 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("netartd did not become healthy: %w", lastErr)
}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("netartd exited during start-up")
		default:
		}
		resp, err := c.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("timed out waiting for /v1/healthz")
}

// stop asks the daemon to shut down and waits until the process has
// ended, killing it if the graceful shutdown takes too long.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Shed  uint64 `json:"shed"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
}

func (d *daemon) stats(c *http.Client) (serverStats, error) {
	var st serverStats
	resp, err := c.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// newClient returns the load generator's HTTP client: keep-alive, and
// never more than conns connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// request is the POST body: an inline Appendix A design, rendered in
// the workload's format, with every option left at netartd's default.
type request struct {
	Name    string `json:"name"`
	Calls   string `json:"calls"`
	Netlist string `json:"netlist"`
	IO      string `json:"io,omitempty"`
	Format  string `json:"format"`
}

func requestBody(d Design, name, format string) []byte {
	b, _ := json.Marshal(request{Name: name, Calls: d.Calls, Netlist: d.Netlist, IO: d.IO, Format: format})
	return b
}

// served is what the benchmark keeps of one successful response.
type served struct {
	design int // index into the run's design table
	// hash is the SHA-256 of the served diagram: of the JSON string
	// literal as it arrived when literal is set, of the decoded text
	// otherwise.
	hash      [32]byte
	literal   bool
	cached    bool
	elapsedMs float64 // the daemon's own elapsed_ms
	bytes     int
	attempts  int
	body      []byte // kept only when the traced run needs it
}

// response is the part of a /v2/generate response the benchmark reads.
type response struct {
	Diagram   string  `json:"diagram"`
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Report    struct {
		Attempts []string `json:"attempts"`
	} `json:"report"`
}

func (r *response) toServed(design int, body []byte, keep bool) *served {
	s := &served{design: design, cached: r.Cached,
		elapsedMs: r.ElapsedMs, bytes: len(body), attempts: len(r.Report.Attempts)}
	if keep {
		s.body = body
	}
	return s
}

// generate sends one synchronous POST /v2/generate.
func generate(ctx context.Context, c *http.Client, base string, body []byte, design int, keep bool) (*served, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v2/generate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("generate: HTTP %d: %.200s", resp.StatusCode, b)
	}
	lit, rest, err := splitDiagram(b)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	var r response
	if err := json.Unmarshal(rest, &r); err != nil {
		return nil, fmt.Errorf("generate: decode: %w", err)
	}
	s := r.toServed(design, b, keep)
	s.hash, s.literal = sha256.Sum256(lit), true
	return s, nil
}

// splitDiagram cuts the "diagram" string literal out of a generate
// response, so a large diagram is hashed as served instead of decoded
// (decoding it cost the load generator more than a cache hit costs
// the daemon); the rest of the body still goes through encoding/json.
// The key is the first one in the object that can hold a quote, so its
// first occurrence is the field itself.
func splitDiagram(b []byte) (lit, rest []byte, err error) {
	key := []byte(`"diagram":"`)
	i := bytes.Index(b, key)
	if i < 0 {
		return nil, nil, errors.New("response has no diagram")
	}
	start := i + len(key) - 1 // the opening quote
	for j := start + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			rest = append(append(append(make([]byte, 0, start+2+len(b)-j), b[:start]...), `""`...), b[j+1:]...)
			return b[start : j+1], rest, nil
		}
	}
	return nil, nil, errors.New("unterminated diagram string")
}

// jobRun is one async job as the client saw it.
type jobRun struct {
	*served
	firstEvent time.Time // first SSE event received
	terminal   time.Time // terminal state event received
	opened     time.Time // event stream opened
	events     int
	sseBytes   int
}

// submitJob sends POST /v2/jobs and follows the job's SSE stream until
// its terminal state event. A state other than done is an error.
func submitJob(ctx context.Context, c *http.Client, base string, body []byte, design int, keep bool) (*jobRun, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v2/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("jobs: HTTP %d: %.200s", resp.StatusCode, b)
	}
	var sub struct {
		StreamURL string `json:"stream_url"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return nil, fmt.Errorf("jobs: decode submit: %w", err)
	}

	jr := &jobRun{opened: time.Now()}
	sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+sub.StreamURL, nil)
	if err != nil {
		return nil, err
	}
	sresp, err := c.Do(sreq)
	if err != nil {
		return nil, err
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("jobs: events HTTP %d", sresp.StatusCode)
	}
	rd := bufio.NewReaderSize(sresp.Body, 64<<10)
	var event string
	var data []byte
	for {
		line, err := rd.ReadBytes('\n')
		jr.sseBytes += len(line)
		if err != nil {
			return nil, fmt.Errorf("jobs: stream ended before a terminal state: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case len(line) == 0 && event != "":
			jr.events++
			if jr.events == 1 {
				jr.firstEvent = time.Now()
			}
			switch event {
			case "report":
				var r response
				if err := json.Unmarshal(data, &r); err != nil {
					return nil, fmt.Errorf("jobs: decode report: %w", err)
				}
				jr.served = r.toServed(design, append([]byte(nil), data...), keep)
				jr.hash = sha256.Sum256([]byte(r.Diagram))
			case "state":
				var st struct {
					State string `json:"state"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(data, &st); err != nil {
					return nil, fmt.Errorf("jobs: decode state: %w", err)
				}
				switch st.State {
				case "done":
					jr.terminal = time.Now()
					if jr.served == nil {
						return nil, errors.New("jobs: done without a report event")
					}
					return jr, nil
				case "failed", "canceled":
					return nil, fmt.Errorf("jobs: job %s: %s", st.State, st.Error)
				}
			}
			event = ""
		}
	}
}
