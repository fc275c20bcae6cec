package emews

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain gates the package on goroutine leaks: once every test has
// passed, the goroutine count must settle back to what it was before the
// first test, within leakGrace. Otherwise the top frame of every
// goroutine still running is printed and the run fails. The os/signal
// loop is not counted: under -fuzz the fuzz engine's interrupt handler
// starts it, and it lives as long as the process.
func TestMain(m *testing.M) {
	before := goroutineCount()
	code := m.Run()
	if code == 0 && !goroutinesSettle(before, leakGrace) {
		fmt.Fprintf(os.Stderr, "goroutine leak: %d running after the tests, %d before:\n", goroutineCount(), before)
		for _, f := range goroutineTops() {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		code = 1
	}
	os.Exit(code)
}

const leakGrace = 3 * time.Second

// signalLoop is the top frame of the os/signal goroutine.
const signalLoop = "os/signal.signal_recv("

// goroutineCount returns the number of goroutines running, the os/signal
// loop aside.
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for _, f := range goroutineTops() {
		if strings.Contains(f, signalLoop) {
			n--
		}
	}
	return n
}

// goroutinesSettle polls until at most n goroutines run, or grace passes.
func goroutinesSettle(n int, grace time.Duration) bool {
	for deadline := time.Now().Add(grace); ; time.Sleep(10 * time.Millisecond) {
		if goroutineCount() <= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// goroutineTops returns, for every goroutine but the caller's, its header
// and top frame: "goroutine 7 [select]: pkg.fn(...) at file.go:12".
func goroutineTops() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for i, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		lines := strings.Split(g, "\n")
		if i == 0 || len(lines) < 3 {
			continue // the caller's own stack comes first
		}
		out = append(out, fmt.Sprintf("%s %s at %s", lines[0], lines[1], strings.TrimSpace(lines[2])))
	}
	return out
}
