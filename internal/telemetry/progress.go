package telemetry

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Progress is the live renderer over a Feed, for dmpsim and dmpexp
// alike. On a TTY it repaints one status line in place (carriage
// return, no scroll) on every event it tracks; on a pipe it prints one
// plain line per "progress" event. Attach with feed.Subscribe(p.Event)
// (or Set.Render) and call Finish when the run ends to terminate the
// line.
type Progress struct {
	w   io.Writer
	tty bool

	mu       sync.Mutex
	done     uint64
	total    float64
	current  string
	hits     uint64
	misses   uint64
	lastLen  int
	finished bool
}

// NewProgress builds a renderer writing to w; tty selects in-place
// repainting.
func NewProgress(w io.Writer, tty bool) *Progress {
	return &Progress{w: w, tty: tty}
}

// isTerminal reports whether w is an *os.File on a character device —
// the stdlib-only TTY check (no termios needed just to pick a render
// style).
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	st, err := f.Stat()
	if err != nil {
		return false
	}
	return st.Mode()&os.ModeCharDevice != 0
}

// Event consumes one feed event; pass it to Feed.Subscribe.
func (p *Progress) Event(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	switch ev.Kind {
	case "progress":
		p.done = ev.N
		if ev.V > 0 {
			p.total = ev.V
		}
		p.current = ev.Msg
	case "simulation":
		switch ev.Msg {
		case "hit":
			p.hits++
		case "miss":
			p.misses++
		}
	case "experiment":
		if ev.Msg == "start" {
			p.current = ev.Name
		}
	default:
		return
	}
	if p.tty || ev.Kind == "progress" {
		p.draw(ev.T)
	}
}

func (p *Progress) draw(t float64) {
	var parts []string
	if p.total > 0 {
		parts = append(parts, fmt.Sprintf("%d/%d", p.done, uint64(p.total)))
	} else if p.done > 0 {
		parts = append(parts, fmt.Sprintf("%d done", p.done))
	}
	if p.hits+p.misses > 0 {
		parts = append(parts, fmt.Sprintf("cache %d hit %d miss", p.hits, p.misses))
	}
	if p.current != "" {
		parts = append(parts, p.current)
	}
	line := fmt.Sprintf("[%6.1fs] %s", t, strings.Join(parts, " · "))
	if p.tty {
		pad := ""
		if n := p.lastLen - len(line); n > 0 {
			pad = strings.Repeat(" ", n)
		}
		fmt.Fprintf(p.w, "\r%s%s", line, pad)
		p.lastLen = len(line)
	} else {
		fmt.Fprintln(p.w, line)
	}
}

// Finish terminates the status line (newline on a TTY) and stops
// further rendering. Nil-safe.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	p.finished = true
	if p.tty && p.lastLen > 0 {
		fmt.Fprintln(p.w)
	}
}
