package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/phy/xbee"
	"repro/internal/rng"
)

var quick = Options{Seed: 1, Quick: true}

func TestTable1(t *testing.T) {
	tab, err := Table1Runner(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("Table 1 has %d rows, want >= 10 (paper lists 10 technologies)", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	for _, want := range []string{"CSS", "GFSK", "O-QPSK", "OFDMA", "nb-iot"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendered table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFig3bShape(t *testing.T) {
	if raceEnabled {
		t.Skip("pure-physics sweep; the non-race experiment step runs it")
	}
	s, err := RunFig3b(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Buckets) != 5 {
		t.Fatalf("buckets %v", s.Buckets)
	}
	// Paper shape assertions:
	// 1. at high SNR (last bucket) all detectors are good
	if s.Universal[4] < 0.8 || s.Matched[4] < 0.8 || s.Energy[4] < 0.6 {
		t.Fatalf("high-SNR detection too low: E=%v U=%v M=%v", s.Energy[4], s.Universal[4], s.Matched[4])
	}
	// 2. energy collapses below 0 dB while universal keeps detecting
	if s.Energy[1] > 0.3 {
		t.Fatalf("energy detector should collapse at [-20,-10): %v", s.Energy[1])
	}
	if s.Universal[1] < s.Energy[1]+0.2 {
		t.Fatalf("universal (%v) should clearly beat energy (%v) below noise", s.Universal[1], s.Energy[1])
	}
	// 3. universal tracks matched within a gap
	for i := range s.Buckets {
		if s.Universal[i] > s.Matched[i]+0.15 {
			t.Fatalf("universal above matched at %s: %v vs %v", s.Buckets[i], s.Universal[i], s.Matched[i])
		}
	}
}

func TestFig3cShape(t *testing.T) {
	if raceEnabled {
		t.Skip("pure-physics sweep; the non-race experiment step runs it")
	}
	s, err := RunFig3c(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Regimes) != 3 {
		t.Fatalf("regimes %v", s.Regimes)
	}
	// Kill filters must beat SIC in aggregate.
	var sicSum, cloudSum float64
	for i := range s.Regimes {
		sicSum += s.SIC[i]
		cloudSum += s.GalioT[i]
	}
	if cloudSum <= sicSum {
		t.Fatalf("GalioT throughput %v should exceed SIC %v", cloudSum, sicSum)
	}
}

// update rewrites the quick sweep's golden tables from this run:
// go test ./internal/experiments/ -run TestRunAllQuick -update
var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from this run")

// TestRunAllQuick is the physics gate: the quick sweep's output, split into
// its tables, must equal testdata/<id>.golden byte for byte. Concatenated
// in id order the goldens are exactly galiot-sim -exp all -quick.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	if raceEnabled {
		t.Skip("sweep exceeds test timeouts under the race detector; components are raced individually")
	}
	var buf bytes.Buffer
	if err := RunAll(quick, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ids := IDs()
	starts := make([]int, len(ids)+1)
	for i, id := range ids {
		at := strings.Index(out, "== "+id+": ")
		if at < 0 || (i > 0 && at < starts[i-1]) {
			t.Fatalf("output missing experiment %s", id)
		}
		starts[i] = at
	}
	starts[len(ids)] = len(out)
	for i, id := range ids {
		got := out[starts[i]:starts[i+1]]
		path := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (refresh with -update)", id, err)
			continue
		}
		wantLines := strings.Split(string(want), "\n")
		gotLines := strings.Split(got, "\n")
		for n := 0; n < max(len(wantLines), len(gotLines)); n++ {
			w, g := lineAt(wantLines, n), lineAt(gotLines, n)
			if w != g {
				t.Errorf("%s: table line %d differs:\nwant %q\n got %q", id, n+1, w, g)
				break
			}
		}
	}
}

// lineAt returns lines[n], or a marker past the end.
func lineAt(lines []string, n int) string {
	if n < len(lines) {
		return lines[n]
	}
	return "<end of table>"
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", quick, &buf); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestCostAndAblationPreamble(t *testing.T) {
	c, err := Cost(quick)
	if err != nil || len(c.Rows) < 4 {
		t.Fatalf("cost: %v %d", err, len(c.Rows))
	}
	a, err := AblationPreamble(quick)
	if err != nil {
		t.Fatal(err)
	}
	// last row: 4 techs but fewer universal groups than matched templates
	last := a.Rows[len(a.Rows)-1]
	if last[0] != "4" || last[1] != "1" || last[3] == last[2] {
		t.Fatalf("ablation rows: %+v", a.Rows)
	}
}

func TestBatteryShowsSavings(t *testing.T) {
	if raceEnabled {
		t.Skip("pure-physics sweep; the non-race experiment step runs it")
	}
	tab, err := Battery(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// The savings note must be present and positive.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "saved by kill filters") {
			found = true
			if strings.Contains(n, "-") {
				t.Fatalf("negative savings: %s", n)
			}
		}
	}
	if !found {
		t.Fatal("savings note missing")
	}
}

func TestAblationKillHasPerFilterRows(t *testing.T) {
	if raceEnabled {
		t.Skip("pure-physics sweep; the non-race experiment step runs it")
	}
	tab, err := AblationKill(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 ablation rows, got %d", len(tab.Rows))
	}
}

// TestEdgePolicyAndScaling: the edge-vs-cloud question is answered by the
// live gateway policy inside the backhaul experiment (there is no separate
// placement model), so its row and counts must be there.
func TestEdgePolicyAndScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("pure-physics sweep; the non-race experiment step runs it")
	}
	bh, err := Backhaul(quick)
	if err != nil || len(bh.Rows) != 4 {
		t.Fatalf("backhaul: %v rows %d", err, len(bh.Rows))
	}
	if !strings.HasPrefix(bh.Rows[3][0], "edge-resolve") || !strings.Contains(strings.Join(bh.Notes, "\n"), "resolved at the edge") {
		t.Fatalf("backhaul table lacks the edge policy: %+v", bh)
	}
	for _, id := range IDs() {
		if id == "edge-policy" {
			t.Fatal("edge-policy is still registered")
		}
	}
	if testing.Short() {
		return
	}
	sc, err := Scaling(quick)
	if err != nil || len(sc.Rows) != 4 {
		t.Fatalf("scaling: %v rows %d", err, len(sc.Rows))
	}
}

// TestBackhaulWireAccounting: the experiment's wire bytes are what
// Conn.SendSegmentSeq reports, which is what actually lands on the stream:
// 5 B message header + 8 B sequence number + the encoded segment.
func TestBackhaulWireAccounting(t *testing.T) {
	sig, err := xbee.Default().Modulate([]byte("one shipped segment"), fs)
	if err != nil {
		t.Fatal(err)
	}
	capture := channel.Mix(len(sig)+60000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 12}}, rng.New(7), fs)
	var stream bytes.Buffer
	got, err := shipOver(capture, false, &stream)
	if err != nil {
		t.Fatal(err)
	}
	if got.segments != 1 || got.resolved != 0 {
		t.Fatalf("shipment %+v", got)
	}
	if got.wireBytes != stream.Len() {
		t.Fatalf("accounted %d wire bytes, %d written", got.wireBytes, stream.Len())
	}
	typ, payload, err := backhaul.NewConn(&stream).ReadMessage()
	if err != nil || typ != backhaul.MsgSegmentSeq {
		t.Fatalf("read back: type %d, %v", typ, err)
	}
	_, seg, err := backhaul.DecodeSegmentSeq(payload)
	if err != nil || len(seg.Samples) != got.samples {
		t.Fatalf("decoded %d samples (%v), accounted %d", len(seg.Samples), err, got.samples)
	}
	encoded, err := backhaul.DefaultCodec.Encode(seg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 + 8 + len(encoded); got.wireBytes != want || len(payload) != 8+len(encoded) {
		t.Fatalf("wire bytes %d, want header 5 + seq 8 + segment %d", got.wireBytes, len(encoded))
	}
	// The same capture with the edge policy on: the lone packet resolves
	// and nothing touches the wire.
	stream.Reset()
	edge, err := shipOver(capture, true, &stream)
	if err != nil {
		t.Fatal(err)
	}
	if edge != (shipment{resolved: 1}) || stream.Len() != 0 {
		t.Fatalf("edge shipment %+v, %d bytes written", edge, stream.Len())
	}
}
