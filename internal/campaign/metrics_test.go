package campaign

import (
	"context"
	"path/filepath"
	"testing"

	"microlib/internal/telemetry"
)

// Execute with a Metrics registry exposes the campaign and disk-cache
// gauges, and a post-run scrape reflects the finished state.
func TestExecuteRegistersMetrics(t *testing.T) {
	m := telemetry.NewMetrics()
	live := &LiveStats{}
	_, err := Execute(context.Background(), tinySpec(), RunConfig{
		CacheDir: filepath.Join(t.TempDir(), "cache"),
		Live:     live,
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	camp, ok := snap["campaign"].(LiveSnapshot)
	if !ok {
		t.Fatalf("campaign gauge missing or mistyped: %T", snap["campaign"])
	}
	if camp.Completed != 8 || camp.Simulated != 8 || camp.Running != 0 {
		t.Fatalf("campaign gauge: %+v", camp)
	}
	disk, ok := snap["disk_cache"].(CacheCounters)
	if !ok {
		t.Fatalf("disk_cache gauge missing or mistyped: %T", snap["disk_cache"])
	}
	if disk.Puts != 8 || disk.Misses != 8 || disk.BytesWritten == 0 {
		t.Fatalf("disk_cache gauge: %+v", disk)
	}
}
