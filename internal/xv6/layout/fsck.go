package layout

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/vclock"
)

// FsckReport is the result of a consistency check. A file system is
// consistent iff Errors is empty.
type FsckReport struct {
	Errors      []string
	Inodes      int // allocated inodes
	Dirs        int
	Files       int
	UsedBlocks  int // allocated data-region blocks (incl. indirect blocks)
	TotalBlocks int
}

// OK reports whether the check found no inconsistencies.
func (r *FsckReport) OK() bool { return len(r.Errors) == 0 }

func (r *FsckReport) errf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Fsck reads the raw device and verifies full metadata consistency:
// superblock sanity, per-inode block pointers (range and exclusivity),
// bitmap agreement with reachability, the directory tree (entry validity,
// "."/".." invariants), and link counts. It assumes the log has already
// been recovered (mount replays it); an unrecovered non-empty log is
// reported so crash tests can distinguish the two states.
func Fsck(clk *vclock.Clock, dev *blockdev.Device) (*FsckReport, error) {
	r := &FsckReport{}
	sb, err := ReadSuperblock(clk, dev)
	if err != nil {
		return nil, err
	}
	r.TotalBlocks = int(sb.Size)
	if int(sb.Size) > dev.Blocks() {
		r.errf("superblock size %d exceeds device %d", sb.Size, dev.Blocks())
		return r, nil
	}

	buf := make([]byte, BlockSize)
	readBlk := func(b uint32) ([]byte, error) {
		if err := dev.Read(clk, int(b), buf); err != nil {
			return nil, err
		}
		return buf, nil
	}

	// Note an unrecovered log.
	lb, err := readBlk(sb.LogStart)
	if err != nil {
		return nil, err
	}
	if lh := DecodeLogHeader(lb); lh.N != 0 {
		r.errf("log header has %d uninstalled transactions blocks", lh.N)
	}

	// Pass 1: read every allocated inode, collect block usage.
	type inodeInfo struct {
		dinode Dinode
		found  uint32 // links found by directory walk
	}
	inodes := make(map[uint32]*inodeInfo)
	blockOwner := make(map[uint32]uint32) // data block -> inode
	claim := func(inum, blk uint32) {
		if blk == 0 {
			return
		}
		if blk < sb.DataStart || blk >= sb.Size {
			r.errf("inode %d references out-of-range block %d", inum, blk)
			return
		}
		if prev, dup := blockOwner[blk]; dup {
			r.errf("block %d claimed by inodes %d and %d", blk, prev, inum)
			return
		}
		blockOwner[blk] = inum
		r.UsedBlocks++
	}

	// Each inode block is read once, when the walk enters it. Block 0 is
	// the boot block, never an inode block, so it marks "none read yet".
	ibuf := make([]byte, BlockSize)
	var iblk uint32
	for inum := uint32(1); inum < sb.NInodes; inum++ {
		if b := sb.InodeBlock(inum); b != iblk {
			if err := dev.Read(clk, int(b), ibuf); err != nil {
				return nil, err
			}
			iblk = b
		}
		din := DecodeDinode(ibuf[InodeOffset(inum):])
		if din.Type == TypeFree {
			continue
		}
		if din.Type != TypeDir && din.Type != TypeFile {
			r.errf("inode %d has invalid type %d", inum, din.Type)
			continue
		}
		r.Inodes++
		if din.Type == TypeDir {
			r.Dirs++
		} else {
			r.Files++
		}
		if int64(din.Size) > MaxFileSize {
			r.errf("inode %d size %d exceeds max %d", inum, din.Size, MaxFileSize)
		}
		inodes[inum] = &inodeInfo{dinode: din}

		for i := 0; i < NDirect; i++ {
			claim(inum, din.Addrs[i])
		}
		if ind := din.Addrs[IndirectSlot]; ind != 0 {
			claim(inum, ind)
			iblk, err := readBlockCopy(clk, dev, ind)
			if err != nil {
				return nil, err
			}
			for i := 0; i < NIndirect; i++ {
				claim(inum, leU32(iblk, 4*i))
			}
		}
		if dind := din.Addrs[DIndirectSlot]; dind != 0 {
			claim(inum, dind)
			dblk, err := readBlockCopy(clk, dev, dind)
			if err != nil {
				return nil, err
			}
			for i := 0; i < NIndirect; i++ {
				l1 := leU32(dblk, 4*i)
				if l1 == 0 {
					continue
				}
				claim(inum, l1)
				l1blk, err := readBlockCopy(clk, dev, l1)
				if err != nil {
					return nil, err
				}
				for j := 0; j < NIndirect; j++ {
					claim(inum, leU32(l1blk, 4*j))
				}
			}
		}
	}

	// Pass 2: walk the directory tree from the root, counting links.
	rootInfo, ok := inodes[RootIno]
	if !ok || rootInfo.dinode.Type != TypeDir {
		r.errf("root inode missing or not a directory")
		return r, nil
	}
	visited := make(map[uint32]bool)
	var walk func(inum uint32)
	walk = func(inum uint32) {
		if visited[inum] {
			return
		}
		visited[inum] = true
		info := inodes[inum]
		din := info.dinode
		if din.Size%DirentSize != 0 {
			r.errf("directory %d size %d not a multiple of %d", inum, din.Size, DirentSize)
		}
		ents, err := readDirRaw(clk, dev, &sb, &din)
		if err != nil {
			r.errf("directory %d unreadable: %v", inum, err)
			return
		}
		var haveDot, haveDotDot bool
		for _, de := range ents {
			if de.Ino == 0 {
				continue
			}
			child, ok := inodes[de.Ino]
			if !ok {
				r.errf("directory %d entry %q references free inode %d", inum, de.Name, de.Ino)
				continue
			}
			switch de.Name {
			case ".":
				haveDot = true
				if de.Ino != inum {
					r.errf("directory %d has . -> %d", inum, de.Ino)
				}
				child.found++ // "." links the directory to itself
				continue
			case "..":
				haveDotDot = true
				child.found++ // ".." links to the parent
				continue
			}
			child.found++
			if child.dinode.Type == TypeDir {
				walk(de.Ino)
			}
		}
		if !haveDot || !haveDotDot {
			r.errf("directory %d missing . or ..", inum)
		}
	}
	walk(RootIno)

	// Link-count convention (ext2-style, shared by mkfs and both xv6
	// implementations): every link is a directory entry, including "."
	// and "..", so a directory's nlink is 2 + its subdirectory count and
	// a file's nlink is its entry count.
	for inum, info := range inodes {
		if info.dinode.Type == TypeDir {
			if uint32(info.dinode.Nlink) != info.found {
				r.errf("directory %d nlink %d, expected %d", inum, info.dinode.Nlink, info.found)
			}
			if !visited[inum] {
				r.errf("directory %d allocated but unreachable", inum)
			}
		} else {
			if uint32(info.dinode.Nlink) != info.found {
				r.errf("file %d nlink %d, found %d links", inum, info.dinode.Nlink, info.found)
			}
			if info.found == 0 {
				r.errf("file %d allocated but has no directory entries", inum)
			}
		}
	}

	// Pass 3: bitmap agreement, reading each bitmap block once into
	// ibuf (pass 1 is done with it; block 0 again marks "none read").
	var bmapBlk uint32
	for b := uint32(0); b < sb.Size; b++ {
		if bb := sb.BitmapBlock(b); bb != bmapBlk {
			if err := dev.Read(clk, int(bb), ibuf); err != nil {
				return nil, err
			}
			bmapBlk = bb
		}
		bit := b % BitsPerBlock
		marked := ibuf[bit/8]&(1<<(bit%8)) != 0
		_, inUse := blockOwner[b]
		if b < sb.DataStart {
			if !marked {
				r.errf("metadata block %d not marked in bitmap", b)
			}
			continue
		}
		if marked && !inUse {
			r.errf("block %d marked used but unreferenced", b)
		}
		if !marked && inUse {
			r.errf("block %d in use by inode %d but marked free", b, blockOwner[b])
		}
	}
	return r, nil
}

// readBlockCopy reads a block into a fresh buffer (helpers above reuse one
// buffer; tree walks need stable copies).
func readBlockCopy(clk *vclock.Clock, dev *blockdev.Device, blk uint32) ([]byte, error) {
	b := make([]byte, BlockSize)
	if err := dev.Read(clk, int(blk), b); err != nil {
		return nil, err
	}
	return b, nil
}

// readDirRaw reads a directory's entries straight from the device given
// its on-disk inode (fsck runs below the file system).
func readDirRaw(clk *vclock.Clock, dev *blockdev.Device, sb *Superblock, din *Dinode) ([]Dirent, error) {
	var ents []Dirent
	nblocks := (din.Size + BlockSize - 1) / BlockSize
	for bn := uint64(0); bn < nblocks; bn++ {
		blk, err := blockForIndex(clk, dev, din, bn)
		if err != nil {
			return nil, err
		}
		if blk == 0 {
			continue // hole in a directory would itself be an error; skip
		}
		data, err := readBlockCopy(clk, dev, blk)
		if err != nil {
			return nil, err
		}
		for off := 0; off < BlockSize; off += DirentSize {
			if uint64(off)+bn*BlockSize >= din.Size {
				break
			}
			ents = append(ents, DecodeDirent(data[off:off+DirentSize]))
		}
	}
	return ents, nil
}

// blockForIndex resolves file block bn through the inode's pointer tree.
func blockForIndex(clk *vclock.Clock, dev *blockdev.Device, din *Dinode, bn uint64) (uint32, error) {
	switch {
	case bn < NDirect:
		return din.Addrs[bn], nil
	case bn < NDirect+NIndirect:
		ind := din.Addrs[IndirectSlot]
		if ind == 0 {
			return 0, nil
		}
		data, err := readBlockCopy(clk, dev, ind)
		if err != nil {
			return 0, err
		}
		return leU32(data, int(bn-NDirect)*4), nil
	default:
		idx := bn - NDirect - NIndirect
		dind := din.Addrs[DIndirectSlot]
		if dind == 0 {
			return 0, nil
		}
		data, err := readBlockCopy(clk, dev, dind)
		if err != nil {
			return 0, err
		}
		l1 := leU32(data, int(idx/NIndirect)*4)
		if l1 == 0 {
			return 0, nil
		}
		l1data, err := readBlockCopy(clk, dev, l1)
		if err != nil {
			return 0, err
		}
		return leU32(l1data, int(idx%NIndirect)*4), nil
	}
}

func leU32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}
