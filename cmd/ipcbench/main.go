// Command ipcbench regenerates the §7 comparison (reconstructed; see
// DESIGN.md): per-message kernel overhead of state-message IPC versus
// mailbox IPC and virtual links, across payload sizes and reader counts.
//
//	ipcbench -sizes 8,64 -readers 1,8
//	ipcbench -csv -json
package main

import (
	"flag"
	"fmt"
	"os"

	"emeralds/internal/cli"
	"emeralds/internal/experiments"
)

func main() {
	c := cli.Register("ipcbench", cli.Workers, cli.CSV)
	sizes := flag.String("sizes", "8,16,32,64", "payload sizes in bytes")
	readers := flag.String("readers", "1,2,4,8", "consumer task counts")
	c.Parse()
	szs := c.Ints("sizes", *sizes, 1)
	rds := c.Ints("readers", *readers, 1)

	pts, diag := experiments.IPCComparisonDiag(szs, rds, nil,
		experiments.Par{Workers: c.Workers, Progress: c.Progress()})
	c.Diagnostics = diag

	if c.CSV {
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprint(p.Readers), fmt.Sprint(p.Size),
				fmt.Sprintf("%.3f", p.StatePerMsg.Micros()),
				fmt.Sprintf("%.3f", p.MailboxPerMsg.Micros()),
				fmt.Sprintf("%.3f", p.VLinkPerMsg.Micros()),
				fmt.Sprintf("%.2f", p.SpeedupX()),
				fmt.Sprintf("%.3f", p.StateSwitchesPerMsg),
				fmt.Sprintf("%.3f", p.MailboxSwitchesPerMsg),
				fmt.Sprintf("%.3f", p.VLinkSwitchesPerMsg),
			})
		}
		cli.WriteCSV(os.Stdout,
			[]string{"readers", "size", "state_us_per_msg", "mailbox_us_per_msg", "vlink_us_per_msg", "speedup_x",
				"state_cs_per_msg", "mbox_cs_per_msg", "vlink_cs_per_msg"},
			rows)
	} else {
		fmt.Print(experiments.RenderIPC(pts))
	}

	type config struct {
		Sizes   []int `json:"sizes"`
		Readers []int `json:"readers"`
	}
	c.EmitArtifact(config{szs, rds}, pts)
}
