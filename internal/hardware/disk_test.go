package hardware

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDiskPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDisk(0) did not panic")
		}
	}()
	NewDisk(0)
}

func TestAddPartitionAccounting(t *testing.T) {
	d := NewDisk(250000)
	p1, err := d.AddPartition(1, 150000)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Index != 1 || p1.SizeMB != 150000 {
		t.Fatalf("p1 = %+v", p1)
	}
	if d.UsedMB() != 150000 || d.FreeMB() != 100000 {
		t.Fatalf("used=%d free=%d", d.UsedMB(), d.FreeMB())
	}
	if _, err := d.AddPartition(1, 10); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := d.AddPartition(2, 200000); err == nil {
		t.Fatal("oversize partition accepted")
	}
}

func TestAddPartitionRestOfDisk(t *testing.T) {
	d := NewDisk(1000)
	if _, err := d.AddPartition(1, 400); err != nil {
		t.Fatal(err)
	}
	p, err := d.AddPartition(2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeMB != 600 {
		t.Fatalf("rest-of-disk = %d MB, want 600", p.SizeMB)
	}
	if d.FreeMB() != 0 {
		t.Fatalf("free = %d, want 0", d.FreeMB())
	}
}

func TestAddPartitionInvalid(t *testing.T) {
	d := NewDisk(1000)
	if _, err := d.AddPartition(0, 10); err == nil {
		t.Fatal("index 0 accepted")
	}
	if _, err := d.AddPartition(1, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := d.AddPartition(1, -5); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestCreateNextPrimary(t *testing.T) {
	d := NewDisk(1000)
	for want := 1; want <= 4; want++ {
		p, err := d.CreateNextPrimary(100)
		if err != nil {
			t.Fatal(err)
		}
		if p.Index != want {
			t.Fatalf("primary slot = %d, want %d", p.Index, want)
		}
	}
	if _, err := d.CreateNextPrimary(100); err == nil {
		t.Fatal("fifth primary accepted")
	}
}

func TestCreateNextPrimarySkipsHoles(t *testing.T) {
	d := NewDisk(1000)
	if _, err := d.AddPartition(2, 100); err != nil {
		t.Fatal(err)
	}
	p, err := d.CreateNextPrimary(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 {
		t.Fatalf("slot = %d, want 1", p.Index)
	}
}

func TestDeletePartition(t *testing.T) {
	d := NewDisk(1000)
	d.AddPartition(1, 100)
	if err := d.DeletePartition(1); err != nil {
		t.Fatal(err)
	}
	if d.HasPartition(1) {
		t.Fatal("partition survived delete")
	}
	if err := d.DeletePartition(1); err == nil {
		t.Fatal("double delete accepted")
	}
	if d.FreeMB() != 1000 {
		t.Fatalf("free = %d after delete", d.FreeMB())
	}
}

func TestCleanWipesEverything(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSNTFS)
	p.WriteFile("/x", []byte("data"))
	d.InstallGRUB(1, "/grub/menu.lst")
	d.Clean()
	if len(d.Partitions()) != 0 {
		t.Fatal("partitions survived Clean")
	}
	if d.MBR.Loader != BootNone {
		t.Fatal("MBR survived Clean")
	}
}

func TestFormatDestroysFiles(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSFAT)
	p.WriteFile("/controlmenu.lst", []byte("default 0"))
	if p.FileCount() != 1 {
		t.Fatal("file not written")
	}
	p.Format(FSFAT)
	if p.FileCount() != 0 {
		t.Fatal("files survived reformat")
	}
	if p.FormatCount() != 2 {
		t.Fatalf("FormatCount = %d, want 2", p.FormatCount())
	}
}

func TestWriteToUnformattedFails(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	if err := p.WriteFile("/x", nil); err == nil {
		t.Fatal("write to unformatted partition accepted")
	}
	p.Format(FSSwap)
	if err := p.WriteFile("/x", nil); err == nil {
		t.Fatal("write to swap accepted")
	}
}

func TestFileOps(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSExt3)
	if err := p.WriteFile("boot/grub/menu.lst", []byte("default=0")); err != nil {
		t.Fatal(err)
	}
	// path normalisation: leading slash optional, doubled slashes collapse
	got, err := p.ReadFile("//boot//grub/menu.lst")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "default=0" {
		t.Fatalf("read back %q", got)
	}
	if !p.HasFile("/boot/grub/menu.lst") {
		t.Fatal("HasFile false")
	}
	if _, err := p.ReadFile("/missing"); err == nil {
		t.Fatal("read of missing file succeeded")
	}
	if err := p.RemoveFile("/missing"); err == nil {
		t.Fatal("remove of missing file succeeded")
	}
	if err := p.RemoveFile("/boot/grub/menu.lst"); err != nil {
		t.Fatal(err)
	}
	if p.FileCount() != 0 {
		t.Fatal("file not removed")
	}
}

func TestReadFileReturnsCopy(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSFAT)
	p.WriteFile("/f", []byte("abc"))
	got, _ := p.ReadFile("/f")
	got[0] = 'X'
	again, _ := p.ReadFile("/f")
	if string(again) != "abc" {
		t.Fatal("ReadFile aliases internal storage")
	}
}

func TestRenameFile(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSFAT)
	p.WriteFile("/controlmenu_to_windows.lst", []byte("win"))
	if err := p.RenameFile("/controlmenu_to_windows.lst", "/controlmenu.lst"); err != nil {
		t.Fatal(err)
	}
	if p.HasFile("/controlmenu_to_windows.lst") {
		t.Fatal("source survived rename")
	}
	data, err := p.ReadFile("/controlmenu.lst")
	if err != nil || string(data) != "win" {
		t.Fatalf("dest = %q, %v", data, err)
	}
	if err := p.RenameFile("/nope", "/x"); err == nil {
		t.Fatal("rename of missing file succeeded")
	}
}

func TestCopyFile(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSFAT)
	p.WriteFile("/a", []byte("orig"))
	if err := p.CopyFile("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	b, _ := p.ReadFile("/b")
	if string(b) != "orig" {
		t.Fatalf("copy = %q", b)
	}
	if !p.HasFile("/a") {
		t.Fatal("source lost on copy")
	}
}

func TestSetActive(t *testing.T) {
	d := NewDisk(1000)
	d.AddPartition(1, 100)
	d.AddPartition(2, 100)
	if err := d.SetActive(1); err != nil {
		t.Fatal(err)
	}
	if err := d.SetActive(2); err != nil {
		t.Fatal(err)
	}
	p1, _ := d.Partition(1)
	p2, _ := d.Partition(2)
	if p1.Active || !p2.Active {
		t.Fatal("active flag not exclusive")
	}
	if err := d.SetActive(9); err == nil {
		t.Fatal("SetActive on missing partition succeeded")
	}
	ap, ok := d.ActivePartition()
	if !ok || ap.Index != 2 {
		t.Fatalf("ActivePartition = %v, %v", ap, ok)
	}
}

func TestSetActiveRejectsLogical(t *testing.T) {
	d := NewDisk(1000)
	d.AddPartition(5, 100)
	if err := d.SetActive(5); err == nil {
		t.Fatal("logical partition marked active")
	}
}

func TestInstallGRUBAndWindowsMBR(t *testing.T) {
	d := NewDisk(1000)
	if err := d.InstallGRUB(2, "/grub/menu.lst"); err == nil {
		t.Fatal("GRUB installed pointing at missing partition")
	}
	d.AddPartition(2, 100)
	if err := d.InstallGRUB(2, "grub/menu.lst"); err != nil {
		t.Fatal(err)
	}
	if d.MBR.Loader != BootGRUB || d.MBR.GrubConfigPartition != 2 || d.MBR.GrubConfigPath != "/grub/menu.lst" {
		t.Fatalf("MBR = %+v", d.MBR)
	}
	// Windows reimage rewrites the MBR and destroys GRUB (the v1 failure).
	d.InstallWindowsMBR()
	if d.MBR.Loader != BootWindows || d.MBR.GrubConfigPartition != 0 {
		t.Fatalf("MBR after Windows = %+v", d.MBR)
	}
}

func TestPartitionsSorted(t *testing.T) {
	d := NewDisk(1000)
	d.AddPartition(5, 10)
	d.AddPartition(1, 10)
	d.AddPartition(2, 10)
	var idx []int
	for _, p := range d.Partitions() {
		idx = append(idx, p.Index)
	}
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 5 {
		t.Fatalf("order = %v", idx)
	}
}

func TestDiskString(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSNTFS)
	p.Label = "Node"
	d.SetActive(1)
	s := d.String()
	for _, want := range []string{"1000MB", "ntfs", "active", `"Node"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestFSTypeParseRoundTrip(t *testing.T) {
	for _, fs := range []FSType{FSNone, FSExt3, FSNTFS, FSFAT, FSSwap} {
		got, err := ParseFSType(fs.String())
		if err != nil || got != fs {
			t.Errorf("ParseFSType(%v.String()) = %v, %v", fs, got, err)
		}
	}
	if _, err := ParseFSType("zfs"); err == nil {
		t.Error("ParseFSType(zfs) succeeded")
	}
	for _, alias := range []string{"FAT32", "vfat", "msdos"} {
		got, err := ParseFSType(alias)
		if err != nil || got != FSFAT {
			t.Errorf("ParseFSType(%q) = %v, %v", alias, got, err)
		}
	}
}

// Property: used + free always equals disk size, regardless of the
// partition operations applied.
func TestQuickSpaceConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		d := NewDisk(1 << 20)
		idx := 1
		for _, s := range sizes {
			if _, err := d.AddPartition(idx, int64(s)+1); err == nil {
				idx++
			}
			if idx > 12 {
				break
			}
		}
		return d.UsedMB()+d.FreeMB() == d.SizeMB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: file write/read round-trips arbitrary contents.
func TestQuickFileRoundTrip(t *testing.T) {
	d := NewDisk(1000)
	p, _ := d.AddPartition(1, 500)
	p.Format(FSFAT)
	f := func(data []byte) bool {
		if err := p.WriteFile("/f", data); err != nil {
			return false
		}
		got, err := p.ReadFile("/f")
		return err == nil && string(got) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionLookupMisses: a missing index is an error naming it for
// Partition and plain false for HasPartition.
func TestPartitionLookupMisses(t *testing.T) {
	d := NewDisk(1000)
	if _, err := d.AddPartition(2, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Partition(3); err == nil || err.Error() != "hardware: no partition 3" {
		t.Fatalf("Partition(3) error = %v", err)
	}
	if d.HasPartition(3) || !d.HasPartition(2) {
		t.Fatalf("HasPartition(3) = %v, HasPartition(2) = %v", d.HasPartition(3), d.HasPartition(2))
	}
}
