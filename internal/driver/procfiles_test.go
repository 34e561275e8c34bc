package driver

import (
	"fmt"
	"strings"
	"testing"

	"yanc/internal/openflow"
	"yanc/internal/yancfs"
)

func TestProcFilesPublishTelemetry(t *testing.T) {
	r := newRig(t, openflow.Version10, 1)
	r.d.ProcDir = "/.proc/driver"
	sc := r.attach(t, 1)
	p := r.y.Root()

	for _, f := range []string{"rtt", "echo", "tx_rx", "pktin", "flows"} {
		if !p.Exists("/.proc/driver/sw1/" + f) {
			t.Fatalf("missing /.proc/driver/sw1/%s", f)
		}
	}

	// Install a flow so the driver sends a flow-mod; tx must be counted.
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "flow install", func() bool { return r.net.Switch(1).FlowCount() == 1 })
	eventually(t, "tx counted", func() bool {
		s, _ := p.ReadString("/.proc/driver/sw1/tx_rx")
		return strings.HasPrefix(s, "tx ") && !strings.HasPrefix(s, "tx 0\n")
	})

	// One file-I/O commit: at least one pass, one flow looked at, one
	// flow-add in one flush, and nothing left dirty.
	eventually(t, "reconcile counters", func() bool {
		s, _ := p.ReadString("/.proc/driver/sw1/flows")
		var dirty, passes, reconciled, pushed, coalesced, flushes, flowmods uint64
		n, _ := fmt.Sscanf(s, "dirty %d\npasses %d\nreconciled %d\npushed %d\ncoalesced %d\nflushes %d\nflowmods %d",
			&dirty, &passes, &reconciled, &pushed, &coalesced, &flushes, &flowmods)
		return n == 7 && dirty == 0 && passes >= 1 && reconciled >= 1 && pushed == 1 && flushes == 1 && flowmods == 1
	})
	if s, _ := p.ReadString("/.proc/driver/sw1/pktin"); s != "seen 0\nshed 0\nbatches 0" {
		t.Fatalf("pktin file = %q", s)
	}

	echo, err := p.ReadString("/.proc/driver/sw1/echo")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"sent", "replies", "miss_streak"} {
		if !strings.Contains(echo, field) {
			t.Fatalf("echo file missing %q:\n%s", field, echo)
		}
	}
	rtt, err := p.ReadString("/.proc/driver/sw1/rtt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rtt, "count") || !strings.Contains(rtt, "p99") {
		t.Fatalf("rtt file malformed:\n%s", rtt)
	}

	// After the connection dies the files stay but report disconnected.
	sc.stop()
	eventually(t, "disconnected reported", func() bool {
		s, _ := p.ReadString("/.proc/driver/sw1/rtt")
		return s == "disconnected"
	})
}
