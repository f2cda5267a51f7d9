package gateway

import (
	"testing"

	"repro/internal/backhaul"
)

func TestScaleWindow(t *testing.T) {
	cases := []struct {
		name   string
		window int // Config.Window: 0 = auto-sized
		ack    backhaul.HelloAck
		want   int
	}{
		{"unsharded ack leaves auto window alone", 0, backhaul.HelloAck{}, DefaultWindow},
		{"single shard is not a fleet", 0, backhaul.HelloAck{Shards: 1}, DefaultWindow},
		{"auto window grows with the shard count", 0, backhaul.HelloAck{Shards: 4}, 4 * DefaultWindow},
		{"landing shard's bound caps the growth", 0, backhaul.HelloAck{Shards: 4, Window: 12}, 12},
		{"pinned window never grows", 4, backhaul.HelloAck{Shards: 4}, 4},
		{"pinned window still shrinks to the shard bound", 16, backhaul.HelloAck{Shards: 4, Window: 6}, 6},
		{"legacy ack shrinks as before sharding", 16, backhaul.HelloAck{Window: 6}, 6},
		{"shard bound below default shrinks auto too", 0, backhaul.HelloAck{Shards: 2, Window: 3}, 3},
	}
	for _, c := range cases {
		if got := scaleWindow(c.window, c.ack); got != c.want {
			t.Errorf("%s: scaleWindow(%d, %+v) = %d, want %d", c.name, c.window, c.ack, got, c.want)
		}
	}
}
