package pefile

import (
	"encoding/binary"
	"fmt"
)

// align rounds v up to the next multiple of a (a must be a power of two in
// valid PE images, but any positive a works here).
func align(v, a uint32) uint32 {
	if a == 0 {
		return v
	}
	return (v + a - 1) / a * a
}

// New creates an empty PE32 image with default headers and no sections.
// The caller adds sections with AddSection and sets the entry point.
func New() *File {
	f := &File{}
	f.DOSStub = defaultDOSStub()
	f.lfanew = uint32(dosHeaderSize + len(f.DOSStub))
	f.FileHeader = FileHeader{
		Machine:              machine86,
		SizeOfOptionalHeader: optHeaderSize,
		Characteristics:      0x0102, // EXECUTABLE_IMAGE | 32BIT_MACHINE
	}
	f.Optional = OptionalHeader32{
		Magic:                 opt32,
		MajorLinkerVersion:    14,
		ImageBase:             DefaultImageBase,
		SectionAlignment:      DefaultSectionAlignment,
		FileAlignment:         DefaultFileAlignment,
		MajorSubsystemVersion: 6,
		Subsystem:             3, // IMAGE_SUBSYSTEM_WINDOWS_CUI
		SizeOfStackReserve:    0x100000,
		SizeOfStackCommit:     0x1000,
		SizeOfHeapReserve:     0x100000,
		SizeOfHeapCommit:      0x1000,
		NumberOfRvaAndSizes:   numDataDirs,
	}
	return f
}

// defaultDOSStub returns the classic 64-byte "This program cannot be run in
// DOS mode" stub used by images built from scratch.
func defaultDOSStub() []byte {
	stub := make([]byte, 64)
	copy(stub, []byte{
		0x0E, 0x1F, 0xBA, 0x0E, 0x00, 0xB4, 0x09, 0xCD,
		0x21, 0xB8, 0x01, 0x4C, 0xCD, 0x21,
	})
	copy(stub[14:], "This program cannot be run in DOS mode.\r\r\n$")
	return stub
}

// headerSpan returns the byte length of everything before raw section data:
// DOS header, DOS stub, NT signature, file header, optional header, and the
// section table for n sections.
func (f *File) headerSpan(n int) uint32 {
	return uint32(dosHeaderSize+len(f.DOSStub)) + 4 + fileHeaderSize +
		uint32(f.FileHeader.SizeOfOptionalHeader) + uint32(n*sectionHeaderSize)
}

// Layout recomputes every derived header field: section raw pointers and
// sizes (respecting FileAlignment), virtual addresses are left untouched,
// SizeOfHeaders, SizeOfImage, SizeOfCode/InitializedData, and the section
// count. Mutators call it automatically; callers that edit Section.Data in
// place should call it before Bytes.
func (f *File) Layout() {
	fa := f.Optional.FileAlignment
	if fa == 0 {
		fa = DefaultFileAlignment
		f.Optional.FileAlignment = fa
	}
	sa := f.Optional.SectionAlignment
	if sa == 0 {
		sa = DefaultSectionAlignment
		f.Optional.SectionAlignment = sa
	}

	f.FileHeader.NumberOfSections = uint16(len(f.Sections))
	hdr := align(f.headerSpan(len(f.Sections)), fa)
	f.Optional.SizeOfHeaders = hdr

	off := hdr
	var sizeCode, sizeData, imageEnd uint32
	imageEnd = align(hdr, sa)
	for _, s := range f.Sections {
		raw := align(uint32(len(s.Data)), fa)
		if uint32(len(s.Data)) != raw {
			// Pad the stored data so len(Data) == SizeOfRawData; keeps
			// byte-level attacks able to index the full on-disk extent.
			pad := make([]byte, raw-uint32(len(s.Data)))
			s.Data = append(s.Data, pad...)
		}
		s.SizeOfRawData = raw
		if raw == 0 {
			s.PointerToRawData = 0
		} else {
			s.PointerToRawData = off
			off += raw
		}
		if s.VirtualSize == 0 {
			s.VirtualSize = uint32(len(s.Data))
		}
		end := s.VirtualAddress + align(s.VirtualSize, sa)
		if end > imageEnd {
			imageEnd = end
		}
		if s.IsCode() {
			sizeCode += raw
		} else if s.Characteristics&SecInitializedData != 0 {
			sizeData += raw
		}
	}
	f.Optional.SizeOfCode = sizeCode
	f.Optional.SizeOfInitializedData = sizeData
	f.Optional.SizeOfImage = imageEnd
	if cs := f.CodeSections(); len(cs) > 0 {
		f.Optional.BaseOfCode = cs[0].VirtualAddress
	}
	if ds := f.DataSections(); len(ds) > 0 {
		f.Optional.BaseOfData = ds[0].VirtualAddress
	}
}

// NextVirtualAddress returns the first section-aligned RVA past all
// existing sections (or past the headers when there are none).
func (f *File) NextVirtualAddress() uint32 {
	sa := f.Optional.SectionAlignment
	if sa == 0 {
		sa = DefaultSectionAlignment
	}
	next := align(f.headerSpan(len(f.Sections)+1), sa)
	for _, s := range f.Sections {
		end := s.VirtualAddress + align(maxU32(s.VirtualSize, uint32(len(s.Data))), sa)
		if end > next {
			next = end
		}
	}
	return next
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// AddSection appends a new section holding data with the given
// characteristics, assigns it the next free virtual address, re-lays-out the
// file, and returns the new section.
func (f *File) AddSection(name string, data []byte, characteristics uint32) (*Section, error) {
	if len(name) > 8 {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	s := &Section{
		Name:            name,
		VirtualAddress:  f.NextVirtualAddress(),
		VirtualSize:     uint32(len(data)),
		Characteristics: characteristics,
		Data:            append([]byte(nil), data...),
	}
	f.Sections = append(f.Sections, s)
	f.Layout()
	return s, nil
}

// RenameSection changes a section's name in place. Section names are one of
// the header fields the paper's Figure 2 marks as freely perturbable.
func (f *File) RenameSection(oldName, newName string) error {
	if len(newName) > 8 {
		return fmt.Errorf("%w: %q", ErrNameTooLong, newName)
	}
	s := f.SectionByName(oldName)
	if s == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchSection, oldName)
	}
	s.Name = newName
	return nil
}

// SetEntryPoint redirects execution to the given RVA. This is how the
// recovery module takes control before the original program runs.
func (f *File) SetEntryPoint(rva uint32) { f.Optional.AddressOfEntryPoint = rva }

// SetTimestamp overwrites the COFF timestamp, another functionality-neutral
// header perturbation from Figure 2.
func (f *File) SetTimestamp(ts uint32) { f.FileHeader.TimeDateStamp = ts }

// AppendOverlay adds bytes past the last section's raw data ("overlay
// appending" in the paper, used when a sample has no room for new sections).
func (f *File) AppendOverlay(b []byte) { f.Overlay = append(f.Overlay, b...) }

// Size returns the total serialized size in bytes.
func (f *File) Size() int {
	f.Layout()
	end := f.Optional.SizeOfHeaders
	for _, s := range f.Sections {
		if s.SizeOfRawData > 0 && s.PointerToRawData+s.SizeOfRawData > end {
			end = s.PointerToRawData + s.SizeOfRawData
		}
	}
	return int(end) + len(f.Overlay)
}

// Bytes serializes the image. It always re-runs Layout first so derived
// fields are consistent with the current section contents.
func (f *File) Bytes() []byte {
	f.Layout()
	out := make([]byte, f.Size())

	// DOS header.
	binary.LittleEndian.PutUint16(out[0:], dosMagic)
	binary.LittleEndian.PutUint16(out[2:], 0x90) // e_cblp, cosmetic
	f.lfanew = uint32(dosHeaderSize + len(f.DOSStub))
	binary.LittleEndian.PutUint32(out[60:], f.lfanew)
	copy(out[dosHeaderSize:], f.DOSStub)

	off := int(f.lfanew)
	binary.LittleEndian.PutUint32(out[off:], ntMagic)
	off += 4

	fh := &f.FileHeader
	binary.LittleEndian.PutUint16(out[off:], fh.Machine)
	binary.LittleEndian.PutUint16(out[off+2:], fh.NumberOfSections)
	binary.LittleEndian.PutUint32(out[off+4:], fh.TimeDateStamp)
	binary.LittleEndian.PutUint32(out[off+8:], fh.PointerToSymbolTable)
	binary.LittleEndian.PutUint32(out[off+12:], fh.NumberOfSymbols)
	binary.LittleEndian.PutUint16(out[off+16:], fh.SizeOfOptionalHeader)
	binary.LittleEndian.PutUint16(out[off+18:], fh.Characteristics)
	off += fileHeaderSize

	writeOptional32(out[off:], &f.Optional)
	off += int(fh.SizeOfOptionalHeader)

	for _, s := range f.Sections {
		h := out[off:]
		copy(h[0:8], s.Name)
		binary.LittleEndian.PutUint32(h[8:], s.VirtualSize)
		binary.LittleEndian.PutUint32(h[12:], s.VirtualAddress)
		binary.LittleEndian.PutUint32(h[16:], s.SizeOfRawData)
		binary.LittleEndian.PutUint32(h[20:], s.PointerToRawData)
		binary.LittleEndian.PutUint32(h[36:], s.Characteristics)
		off += sectionHeaderSize
	}

	end := int(f.Optional.SizeOfHeaders)
	for _, s := range f.Sections {
		if s.SizeOfRawData == 0 {
			continue
		}
		copy(out[s.PointerToRawData:], s.Data)
		if e := int(s.PointerToRawData + s.SizeOfRawData); e > end {
			end = e
		}
	}
	copy(out[end:], f.Overlay)
	return out
}

func writeOptional32(b []byte, o *OptionalHeader32) {
	binary.LittleEndian.PutUint16(b[0:], o.Magic)
	b[2] = o.MajorLinkerVersion
	b[3] = o.MinorLinkerVersion
	binary.LittleEndian.PutUint32(b[4:], o.SizeOfCode)
	binary.LittleEndian.PutUint32(b[8:], o.SizeOfInitializedData)
	binary.LittleEndian.PutUint32(b[12:], o.SizeOfUninitializedData)
	binary.LittleEndian.PutUint32(b[16:], o.AddressOfEntryPoint)
	binary.LittleEndian.PutUint32(b[20:], o.BaseOfCode)
	binary.LittleEndian.PutUint32(b[24:], o.BaseOfData)
	binary.LittleEndian.PutUint32(b[28:], o.ImageBase)
	binary.LittleEndian.PutUint32(b[32:], o.SectionAlignment)
	binary.LittleEndian.PutUint32(b[36:], o.FileAlignment)
	binary.LittleEndian.PutUint16(b[40:], o.MajorOperatingSystemVersion)
	binary.LittleEndian.PutUint16(b[42:], o.MinorOperatingSystemVersion)
	binary.LittleEndian.PutUint16(b[44:], o.MajorImageVersion)
	binary.LittleEndian.PutUint16(b[46:], o.MinorImageVersion)
	binary.LittleEndian.PutUint16(b[48:], o.MajorSubsystemVersion)
	binary.LittleEndian.PutUint16(b[50:], o.MinorSubsystemVersion)
	binary.LittleEndian.PutUint32(b[52:], o.Win32VersionValue)
	binary.LittleEndian.PutUint32(b[56:], o.SizeOfImage)
	binary.LittleEndian.PutUint32(b[60:], o.SizeOfHeaders)
	binary.LittleEndian.PutUint32(b[64:], o.CheckSum)
	binary.LittleEndian.PutUint16(b[68:], o.Subsystem)
	binary.LittleEndian.PutUint16(b[70:], o.DllCharacteristics)
	binary.LittleEndian.PutUint32(b[72:], o.SizeOfStackReserve)
	binary.LittleEndian.PutUint32(b[76:], o.SizeOfStackCommit)
	binary.LittleEndian.PutUint32(b[80:], o.SizeOfHeapReserve)
	binary.LittleEndian.PutUint32(b[84:], o.SizeOfHeapCommit)
	binary.LittleEndian.PutUint32(b[88:], o.LoaderFlags)
	binary.LittleEndian.PutUint32(b[92:], o.NumberOfRvaAndSizes)
	for i := 0; i < numDataDirs; i++ {
		binary.LittleEndian.PutUint32(b[96+8*i:], o.DataDirectories[i].VirtualAddress)
		binary.LittleEndian.PutUint32(b[100+8*i:], o.DataDirectories[i].Size)
	}
}

// SlackRegion describes unused bytes between a section's meaningful content
// (VirtualSize) and its file-aligned raw size. The paper's footnote 5 notes
// these are too small to matter for attacks; they are exposed for the
// ablations anyway.
type SlackRegion struct {
	Section string
	Offset  uint32 // file offset of the first slack byte
	Length  uint32
}

// SlackRegions enumerates per-section slack (alignment padding) regions.
func (f *File) SlackRegions() []SlackRegion {
	var out []SlackRegion
	for _, s := range f.Sections {
		if s.SizeOfRawData == 0 || s.VirtualSize >= s.SizeOfRawData {
			continue
		}
		out = append(out, SlackRegion{
			Section: s.Name,
			Offset:  s.PointerToRawData + s.VirtualSize,
			Length:  s.SizeOfRawData - s.VirtualSize,
		})
	}
	return out
}

// Clone returns a deep copy of the file.
func (f *File) Clone() *File {
	g := &File{
		DOSStub:    append([]byte(nil), f.DOSStub...),
		FileHeader: f.FileHeader,
		Optional:   f.Optional,
		Overlay:    append([]byte(nil), f.Overlay...),
		lfanew:     f.lfanew,
	}
	for _, s := range f.Sections {
		c := *s
		c.Data = append([]byte(nil), s.Data...)
		g.Sections = append(g.Sections, &c)
	}
	return g
}
