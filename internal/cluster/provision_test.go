package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/hardware"
	"repro/internal/oscar"
)

// diskDump renders everything deployment writes to a disk: the MBR,
// the partition table and each partition's flags, boot record, format
// count and file bytes.
func diskDump(d *hardware.Disk) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %+v\n", d, d.MBR)
	for _, p := range d.Partitions() {
		fmt.Fprintf(&b, "%d bootable=%v vbr=%s %q formats=%d\n", p.Index, p.Bootable, p.VBR, p.VBRGrubConfig, p.FormatCount())
		for _, f := range p.Files() {
			data, _ := p.ReadFile(f)
			fmt.Fprintf(&b, "  %s %q\n", f, data)
		}
	}
	return b.String()
}

// TestProvisioningMatchesPerCallRender: every node's disk after New
// equals a Windows-then-Linux deployment through a hand-built image,
// which renders its boot menus and package paths on every call.
func TestProvisioningMatchesPerCallRender(t *testing.T) {
	for _, mode := range []Mode{HybridV1, HybridV2} {
		c := newCluster(t, Config{Mode: mode, Nodes: 6})
		img, _, err := c.currentImage()
		if err != nil {
			t.Fatal(err)
		}
		hand := &oscar.Image{Name: img.Name, Version: img.Version, Layout: img.Layout, Kernel: img.Kernel,
			Windows: img.Windows, Packages: img.Packages, ManualPatches: img.ManualPatches}
		script := deploy.V2InitialDiskpart
		if mode == HybridV1 {
			script = deploy.V1Diskpart
		}
		dp, err := deploy.ParseDiskpart(script)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range c.Nodes() {
			hw := hardware.NewNode(hardware.NodeSpec{Name: n.HW.Name, Index: i + 1})
			if _, err := deploy.DeployWindows(hw, dp); err != nil {
				t.Fatal(err)
			}
			if _, err := oscar.DeployNode(hw, hand); err != nil {
				t.Fatal(err)
			}
			if mode == HybridV1 {
				if err := c.setV1ControlFile(hw, n.HW.BootedOS); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := diskDump(n.HW.Disk), diskDump(hw.Disk); got != want {
				t.Fatalf("%s %s: provisioned disk\n%s\nper-call render\n%s", mode, n.HW.Name, got, want)
			}
		}
	}
}
