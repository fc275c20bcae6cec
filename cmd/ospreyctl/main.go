// Command ospreyctl inspects an AERO metadata server: lists registered
// flows and data identities, shows version histories, and walks provenance
// — the operator's window into what the automated workflows have done.
//
// Usage:
//
//	ospreyctl [-server http://127.0.0.1:7523] <command> [args]
//
// Commands:
//
//	flows                 list registered flows
//	data                  list data identities
//	versions <uuid>       show a data item's version history
//	provenance <uuid>     show derivation edges touching a data item
//	shards                show the daemon's task-substrate shard group
//	metrics               pretty-print the server's /metrics snapshot
//	trace                 print the server's recent span timeline
//	health                check server liveness
//	compact               force a WAL snapshot + log truncation on the server
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"osprey/internal/aero"
	"osprey/internal/plot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ospreyctl: ")
	server := flag.String("server", "http://127.0.0.1:7523", "AERO metadata server URL")
	token := flag.String("token", os.Getenv("OSPREY_TOKEN"), "bearer token for a multi-tenant server (default $OSPREY_TOKEN)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	client := aero.NewClient(*server)
	client.Token = *token

	var err error
	switch args[0] {
	case "flows":
		err = listFlows(client)
	case "data":
		err = listData(client)
	case "versions":
		if len(args) != 2 {
			usage()
		}
		err = showVersions(client, args[1])
	case "provenance":
		if len(args) != 2 {
			usage()
		}
		err = showProvenance(client, args[1])
	case "topology":
		var dot string
		dot, err = aero.ExportDOT(client, "AERO workflow topology")
		if err == nil {
			fmt.Print(dot)
		}
	case "shards":
		err = shardsCmd(*server)
	case "metrics":
		err = metricsCmd(*server)
	case "trace":
		err = traceCmd(*server)
	case "health":
		err = health(*server)
	case "compact":
		err = compact(*server, *token)
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ospreyctl [-server URL] flows|data|versions <uuid>|provenance <uuid>|topology|shards|metrics|trace|health|compact")
	os.Exit(2)
}

func listFlows(c *aero.Client) error {
	flows, err := c.ListFlows()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, f := range flows {
		last := "-"
		if !f.LastRun.IsZero() {
			last = f.LastRun.Format(time.RFC3339)
		}
		rows = append(rows, []string{f.ID, f.Name, f.Kind.String(),
			fmt.Sprintf("%d", len(f.InputUUIDs)), fmt.Sprintf("%d", len(f.OutputUUIDs)),
			fmt.Sprintf("%d", f.Runs), last})
	}
	return plot.Table(os.Stdout, []string{"ID", "Name", "Kind", "In", "Out", "Runs", "Last run"}, rows)
}

func listData(c *aero.Client) error {
	recs, err := c.ListData()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, d := range recs {
		latest := "-"
		if v := d.Latest(); v != nil {
			latest = fmt.Sprintf("v%d @ %s/%s", v.Num, v.Endpoint, v.Path)
		}
		rows = append(rows, []string{d.UUID, d.Name, fmt.Sprintf("%d", len(d.Versions)), latest})
	}
	return plot.Table(os.Stdout, []string{"UUID", "Name", "Versions", "Latest"}, rows)
}

func showVersions(c *aero.Client, uuid string) error {
	rec, err := c.GetData(uuid)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s)\n", rec.UUID, rec.Name)
	if rec.SourceURL != "" {
		fmt.Printf("source: %s\n", rec.SourceURL)
	}
	var rows [][]string
	for _, v := range rec.Versions {
		rows = append(rows, []string{
			fmt.Sprintf("v%d", v.Num), v.Timestamp.Format(time.RFC3339),
			fmt.Sprintf("%d", v.Size), v.Checksum[:min(16, len(v.Checksum))],
			fmt.Sprintf("%s/%s:%s", v.Endpoint, v.Collection, v.Path),
		})
	}
	return plot.Table(os.Stdout, []string{"Version", "Timestamp", "Size", "Checksum", "Location"}, rows)
}

func showProvenance(c *aero.Client, uuid string) error {
	edges, err := c.Provenance(uuid)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, e := range edges {
		rows = append(rows, []string{
			e.FlowID,
			fmt.Sprintf("%s v%d", e.InputUUID, e.InputVersion),
			fmt.Sprintf("%s v%d", e.OutputUUID, e.OutputVersion),
			e.Timestamp.Format(time.RFC3339),
		})
	}
	return plot.Table(os.Stdout, []string{"Flow", "Input", "Output", "When"}, rows)
}

func health(server string) error {
	resp, err := http.Get(server + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server returned %d", resp.StatusCode)
	}
	fmt.Println("ok")
	return nil
}

// compact asks the server to snapshot its state and truncate its WAL —
// the manual handle on replay debt (the daemon also compacts on size and
// at clean shutdown).
func compact(server, token string) error {
	req, err := http.NewRequest(http.MethodPost, server+"/admin/compact", nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		fmt.Println("compacted")
		return nil
	case http.StatusNotImplemented:
		return fmt.Errorf("server has no WAL persistence enabled (start it with -data-dir)")
	case http.StatusUnauthorized, http.StatusForbidden:
		return fmt.Errorf("server requires a valid bearer token (pass -token or set $OSPREY_TOKEN)")
	default:
		return fmt.Errorf("server returned %d", resp.StatusCode)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
