package main

import (
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"osprey/internal/aero"
	"osprey/internal/globus"
)

func TestLoadAuthRejectsMalformedFiles(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"bad json", `[{"token":"t-1","tenant":"alice"}`, "unexpected end"},
		{"missing token", `[{"tenant":"alice"}]`, "entry 0 needs both token and tenant"},
		{"missing tenant", `[{"token":"t-1"}]`, "entry 0 needs both token and tenant"},
		{"duplicate token", `[{"token":"t-1","tenant":"alice"},{"token":"t-1","tenant":"bob"}]`, "entry 1 repeats a token"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tokens.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, _, err := loadAuth(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadAuth error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestLoadAuthMapsTokensToTenants(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens.json")
	body := `[{"token":"t-1","tenant":"alice"},{"token":"t-2","tenant":"bob"}]`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	auth, n, err := loadAuth(path)
	if err != nil || n != 2 {
		t.Fatalf("loadAuth = %d tokens, %v", n, err)
	}
	for token, tenant := range map[string]string{"t-1": "alice", "t-2": "bob"} {
		tok, err := auth.Validate(token, globus.ScopeAero)
		if err != nil || tok.Identity != tenant {
			t.Fatalf("token %s: %+v, %v", token, tok, err)
		}
	}
}

// TestDataDirRoundTrip boots the built binary on a -data-dir, writes a data
// identity and a version over the HTTP client, stops it with SIGINT and
// requires a second process on the same directory to serve them back.
func TestDataDirRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("process round-trip in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "aero-server")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build aero-server: %v", err)
	}
	dataDir := t.TempDir()

	c1 := startServer(t, bin, dataDir)
	rec, err := c1.client.CreateData("ww/raw", "http://example/ww.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.client.AppendVersion(rec.UUID, aero.Version{Checksum: "c1", Size: 3}); err != nil {
		t.Fatal(err)
	}
	c1.interrupt(t)

	c2 := startServer(t, bin, dataDir)
	defer c2.interrupt(t)
	got, err := c2.client.GetData(rec.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ww/raw" || len(got.Versions) != 1 || got.Latest().Checksum != "c1" {
		t.Fatalf("recovered record %+v", got)
	}
}

type serverProc struct {
	cmd    *exec.Cmd
	client *aero.Client
}

// startServer runs bin on a free loopback port over dataDir and waits for
// it to answer /healthz.
func startServer(t *testing.T, bin, dataDir string) *serverProc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("aero-server at %s not healthy", addr)
		}
	}
	return &serverProc{cmd: cmd, client: aero.NewClient(base)}
}

// interrupt sends SIGINT and waits for a clean exit.
func (p *serverProc) interrupt(t *testing.T) {
	t.Helper()
	if p.cmd.ProcessState != nil {
		return
	}
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("aero-server exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aero-server did not exit on SIGINT")
	}
}
