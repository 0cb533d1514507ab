package layout

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/vclock"
)

func TestSuperblockRoundTrip(t *testing.T) {
	sb := Superblock{Magic: Magic, Size: 10000, NBlocks: 9000, NInodes: 512,
		NLog: LogSize, LogStart: 2, InodeStart: 131, BmapStart: 147, DataStart: 150}
	buf := make([]byte, BlockSize)
	sb.Encode(buf)
	got, err := DecodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("round trip: %+v != %+v", got, sb)
	}
}

func TestSuperblockBadMagic(t *testing.T) {
	buf := make([]byte, BlockSize)
	if _, err := DecodeSuperblock(buf); err == nil {
		t.Fatal("zero buffer accepted as superblock")
	}
}

func TestDinodeRoundTripProperty(t *testing.T) {
	f := func(typ, nlink uint16, size uint64, a0, a11, ind, dind uint32) bool {
		d := Dinode{Type: typ % 3, Nlink: nlink, Size: size}
		d.Addrs[0] = a0
		d.Addrs[11] = a11
		d.Addrs[IndirectSlot] = ind
		d.Addrs[DIndirectSlot] = dind
		buf := make([]byte, InodeSize)
		d.Encode(buf)
		return DecodeDinode(buf) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirentRoundTrip(t *testing.T) {
	buf := make([]byte, DirentSize)
	for _, name := range []string{"a", "file.txt", strings.Repeat("x", MaxNameLen)} {
		if err := EncodeDirent(Dirent{Ino: 42, Name: name}, buf); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		got := DecodeDirent(buf)
		if got.Ino != 42 || got.Name != name {
			t.Fatalf("round trip %q -> %+v", name, got)
		}
	}
}

func TestDirentNameTooLong(t *testing.T) {
	buf := make([]byte, DirentSize)
	err := EncodeDirent(Dirent{Ino: 1, Name: strings.Repeat("x", MaxNameLen+1)}, buf)
	if err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestLogHeaderRoundTrip(t *testing.T) {
	var h LogHeader
	h.N = 3
	h.Blocks[0], h.Blocks[1], h.Blocks[2] = 100, 200, 300
	buf := make([]byte, BlockSize)
	h.Encode(buf)
	got := DecodeLogHeader(buf)
	if got.N != 3 || got.Blocks[1] != 200 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestLogHeaderCorruptCountTreatedEmpty(t *testing.T) {
	var h LogHeader
	h.N = LogSize + 99
	buf := make([]byte, BlockSize)
	h.Encode(buf)
	if got := DecodeLogHeader(buf); got.N != 0 {
		t.Fatalf("corrupt N=%d not sanitized", got.N)
	}
}

func TestGeometryLayoutOrdering(t *testing.T) {
	sb, err := Geometry(10000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !(sb.LogStart < sb.InodeStart && sb.InodeStart < sb.BmapStart && sb.BmapStart < sb.DataStart) {
		t.Fatalf("regions out of order: %+v", sb)
	}
	if sb.DataStart+sb.NBlocks != sb.Size {
		t.Fatalf("data region does not fill device: %+v", sb)
	}
	if _, err := Geometry(10, 64); err == nil {
		t.Fatal("tiny device accepted")
	}
}

func TestInodeIndexing(t *testing.T) {
	sb, _ := Geometry(10000, 1024)
	if got := sb.InodeBlock(0); got != sb.InodeStart {
		t.Fatalf("inode 0 in block %d", got)
	}
	if got := sb.InodeBlock(InodesPerBlock); got != sb.InodeStart+1 {
		t.Fatalf("inode %d in block %d", InodesPerBlock, got)
	}
	if got := InodeOffset(1); got != InodeSize {
		t.Fatalf("inode 1 at offset %d", got)
	}
}

func TestMkfsProducesConsistentFS(t *testing.T) {
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
	clk := vclock.NewClock()
	sb, err := Mkfs(clk, dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSuperblock(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("superblock mismatch: %+v vs %+v", got, sb)
	}
	rep, err := Fsck(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fresh fs inconsistent: %v", rep.Errors)
	}
	if rep.Inodes != 1 || rep.Dirs != 1 || rep.Files != 0 {
		t.Fatalf("fresh fs census: %+v", rep)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
	clk := vclock.NewClock()
	sb, err := Mkfs(clk, dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the root inode's nlink.
	buf := make([]byte, BlockSize)
	if err := dev.Read(clk, int(sb.InodeBlock(RootIno)), buf); err != nil {
		t.Fatal(err)
	}
	din := DecodeDinode(buf[InodeOffset(RootIno):])
	din.Nlink = 7
	din.Encode(buf[InodeOffset(RootIno):])
	if err := dev.Write(clk, int(sb.InodeBlock(RootIno)), buf); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed corrupted nlink")
	}
}

// TestFsckBitmapAgreement flips one bitmap bit per case on a fresh
// image and checks that fsck reports exactly that disagreement. The
// device spans two bitmap blocks, so the last case reads a bit the
// second bitmap block covers.
func TestFsckBitmapAgreement(t *testing.T) {
	const blocks = BitsPerBlock + 4096
	sb, err := Geometry(blocks, 256)
	if err != nil {
		t.Fatal(err)
	}
	if sb.BitmapBlock(sb.Size-1) == sb.BitmapBlock(0) {
		t.Fatalf("%d-block device has one bitmap block; the test needs two", blocks)
	}
	for _, tc := range []struct {
		name string
		blk  uint32
		want string
	}{
		{"free-marked-used", sb.DataStart + 5, fmt.Sprintf("block %d marked used but unreferenced", sb.DataStart+5)},
		{"used-marked-free", sb.DataStart, fmt.Sprintf("block %d in use by inode %d but marked free", sb.DataStart, RootIno)},
		{"metadata-unmarked", sb.InodeStart, fmt.Sprintf("metadata block %d not marked in bitmap", sb.InodeStart)},
		{"second-bitmap-block", BitsPerBlock + 10, fmt.Sprintf("block %d marked used but unreferenced", BitsPerBlock+10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := blockdev.MustNew(blockdev.Config{Blocks: blocks, Model: costmodel.Fast()})
			clk := vclock.NewClock()
			if _, err := Mkfs(clk, dev, 256); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, BlockSize)
			bmap := int(sb.BitmapBlock(tc.blk))
			if err := dev.Read(clk, bmap, buf); err != nil {
				t.Fatal(err)
			}
			bit := tc.blk % BitsPerBlock
			buf[bit/8] ^= 1 << (bit % 8)
			if err := dev.Write(clk, bmap, buf); err != nil {
				t.Fatal(err)
			}
			rep, err := Fsck(clk, dev)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) != 1 || rep.Errors[0] != tc.want {
				t.Fatalf("fsck errors %q, want exactly %q", rep.Errors, tc.want)
			}
		})
	}
}

func TestMaxFileSizeCoversFourGB(t *testing.T) {
	if MaxFileSize < 4<<30 {
		t.Fatalf("max file size %d < 4GiB; paper requires 4GB files", MaxFileSize)
	}
}
