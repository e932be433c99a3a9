// Package pefile implements parsing, serialization, and mutation of PE32
// (Portable Executable) images as used by Windows executables.
//
// The package is self-contained (no debug/pe dependency) because the MPass
// attack needs write access to every structure a reader exposes: it adds
// sections, rewrites entry points, renames sections, edits timestamps,
// appends overlays, and re-lays-out raw data while keeping file and section
// alignment invariants intact. The stdlib reader is read-only.
//
// Only the subset of PE32 needed by the paper is modeled: DOS header, COFF
// file header, the 32-bit optional header with its data directories, the
// section table, raw section data, and the trailing overlay. That subset is
// round-trip stable: Parse followed by Bytes reproduces the input exactly
// for files produced by this package.
package pefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Core PE32 constants. Values follow the Microsoft PE/COFF specification.
const (
	dosMagic  = 0x5A4D     // "MZ"
	ntMagic   = 0x00004550 // "PE\0\0"
	opt32     = 0x10B      // PE32 optional header magic
	machine86 = 0x014C     // IMAGE_FILE_MACHINE_I386

	dosHeaderSize     = 64
	fileHeaderSize    = 20
	optHeaderSize     = 224 // PE32 optional header incl. 16 data directories
	sectionHeaderSize = 40
	numDataDirs       = 16

	// DefaultFileAlignment and DefaultSectionAlignment are the alignments
	// used by images this package builds from scratch.
	DefaultFileAlignment    = 0x200
	DefaultSectionAlignment = 0x1000

	// DefaultImageBase is the preferred load address for built images.
	DefaultImageBase = 0x400000
)

// Section characteristics flags (IMAGE_SCN_*).
const (
	SecCode                = 0x00000020
	SecInitializedData     = 0x00000040
	SecUninitializedData   = 0x00000080
	SecMemExecute          = 0x20000000
	SecMemRead             = 0x40000000
	SecMemWrite            = 0x80000000
	SecCharacteristicsText = SecCode | SecMemExecute | SecMemRead
	SecCharacteristicsData = SecInitializedData | SecMemRead | SecMemWrite
	SecCharacteristicsRsrc = SecInitializedData | SecMemRead
)

// FileHeader mirrors IMAGE_FILE_HEADER.
type FileHeader struct {
	Machine              uint16
	NumberOfSections     uint16
	TimeDateStamp        uint32
	PointerToSymbolTable uint32
	NumberOfSymbols      uint32
	SizeOfOptionalHeader uint16
	Characteristics      uint16
}

// DataDirectory is one entry of the optional header's directory table.
type DataDirectory struct {
	VirtualAddress uint32
	Size           uint32
}

// OptionalHeader32 mirrors IMAGE_OPTIONAL_HEADER32.
type OptionalHeader32 struct {
	Magic                       uint16
	MajorLinkerVersion          uint8
	MinorLinkerVersion          uint8
	SizeOfCode                  uint32
	SizeOfInitializedData       uint32
	SizeOfUninitializedData     uint32
	AddressOfEntryPoint         uint32
	BaseOfCode                  uint32
	BaseOfData                  uint32
	ImageBase                   uint32
	SectionAlignment            uint32
	FileAlignment               uint32
	MajorOperatingSystemVersion uint16
	MinorOperatingSystemVersion uint16
	MajorImageVersion           uint16
	MinorImageVersion           uint16
	MajorSubsystemVersion       uint16
	MinorSubsystemVersion       uint16
	Win32VersionValue           uint32
	SizeOfImage                 uint32
	SizeOfHeaders               uint32
	CheckSum                    uint32
	Subsystem                   uint16
	DllCharacteristics          uint16
	SizeOfStackReserve          uint32
	SizeOfStackCommit           uint32
	SizeOfHeapReserve           uint32
	SizeOfHeapCommit            uint32
	LoaderFlags                 uint32
	NumberOfRvaAndSizes         uint32
	DataDirectories             [numDataDirs]DataDirectory
}

// Section is one section-table entry together with its raw file data.
type Section struct {
	Name             string // up to 8 bytes, NUL-padded on disk
	VirtualSize      uint32
	VirtualAddress   uint32
	SizeOfRawData    uint32
	PointerToRawData uint32
	Characteristics  uint32

	// Data is the raw on-disk content (len == SizeOfRawData after layout).
	Data []byte
}

// IsCode reports whether the section is marked executable code.
func (s *Section) IsCode() bool { return s.Characteristics&SecCode != 0 }

// IsData reports whether the section holds initialized, writable data.
func (s *Section) IsData() bool {
	return s.Characteristics&SecInitializedData != 0 && s.Characteristics&SecMemWrite != 0
}

// Contains reports whether the given RVA falls inside the section's
// virtual address range.
func (s *Section) Contains(rva uint32) bool {
	return rva >= s.VirtualAddress && rva < s.VirtualAddress+s.VirtualSize
}

// File is a parsed, mutable PE32 image.
type File struct {
	DOSStub    []byte // bytes between the DOS header and the NT signature
	FileHeader FileHeader
	Optional   OptionalHeader32
	Sections   []*Section
	Overlay    []byte // bytes past the last section's raw data

	lfanew uint32 // offset of the NT signature
}

// Errors returned by Parse and the mutators.
var (
	ErrNotPE         = errors.New("pefile: not a PE image")
	ErrTruncated     = errors.New("pefile: truncated image")
	ErrBadAlignment  = errors.New("pefile: bad alignment")
	ErrNoSuchSection = errors.New("pefile: no such section")
	ErrNameTooLong   = errors.New("pefile: section name longer than 8 bytes")
)

// Parse decodes a PE32 image from raw is bytes. The returned File owns
// copies of all data; mutating it never aliases b.
func Parse(b []byte) (*File, error) {
	if len(b) < dosHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if binary.LittleEndian.Uint16(b[0:2]) != dosMagic {
		return nil, fmt.Errorf("%w: missing MZ magic", ErrNotPE)
	}
	lfanew := binary.LittleEndian.Uint32(b[60:64])
	if int(lfanew)+4+fileHeaderSize > len(b) {
		return nil, fmt.Errorf("%w: e_lfanew=%#x beyond file", ErrTruncated, lfanew)
	}
	if binary.LittleEndian.Uint32(b[lfanew:lfanew+4]) != ntMagic {
		return nil, fmt.Errorf("%w: missing PE signature", ErrNotPE)
	}

	f := &File{lfanew: lfanew}
	f.DOSStub = append([]byte(nil), b[dosHeaderSize:lfanew]...)

	off := int(lfanew) + 4
	fh := &f.FileHeader
	fh.Machine = binary.LittleEndian.Uint16(b[off:])
	fh.NumberOfSections = binary.LittleEndian.Uint16(b[off+2:])
	fh.TimeDateStamp = binary.LittleEndian.Uint32(b[off+4:])
	fh.PointerToSymbolTable = binary.LittleEndian.Uint32(b[off+8:])
	fh.NumberOfSymbols = binary.LittleEndian.Uint32(b[off+12:])
	fh.SizeOfOptionalHeader = binary.LittleEndian.Uint16(b[off+16:])
	fh.Characteristics = binary.LittleEndian.Uint16(b[off+18:])
	off += fileHeaderSize

	if fh.SizeOfOptionalHeader < optHeaderSize {
		return nil, fmt.Errorf("%w: optional header %d < %d bytes",
			ErrTruncated, fh.SizeOfOptionalHeader, optHeaderSize)
	}
	if off+int(fh.SizeOfOptionalHeader) > len(b) {
		return nil, fmt.Errorf("%w: optional header beyond file", ErrTruncated)
	}
	if err := parseOptional32(b[off:off+optHeaderSize], &f.Optional); err != nil {
		return nil, err
	}
	off += int(fh.SizeOfOptionalHeader)

	n := int(fh.NumberOfSections)
	if off+n*sectionHeaderSize > len(b) {
		return nil, fmt.Errorf("%w: section table beyond file", ErrTruncated)
	}
	endOfData := 0
	for i := 0; i < n; i++ {
		h := b[off+i*sectionHeaderSize:]
		s := &Section{
			Name:             strings.TrimRight(string(h[0:8]), "\x00"),
			VirtualSize:      binary.LittleEndian.Uint32(h[8:]),
			VirtualAddress:   binary.LittleEndian.Uint32(h[12:]),
			SizeOfRawData:    binary.LittleEndian.Uint32(h[16:]),
			PointerToRawData: binary.LittleEndian.Uint32(h[20:]),
			Characteristics:  binary.LittleEndian.Uint32(h[36:]),
		}
		lo, hi := int(s.PointerToRawData), int(s.PointerToRawData)+int(s.SizeOfRawData)
		if s.SizeOfRawData > 0 {
			if hi > len(b) || lo > hi {
				return nil, fmt.Errorf("%w: section %q raw data [%#x,%#x) beyond file",
					ErrTruncated, s.Name, lo, hi)
			}
			s.Data = append([]byte(nil), b[lo:hi]...)
			if hi > endOfData {
				endOfData = hi
			}
		}
		f.Sections = append(f.Sections, s)
	}
	headerEnd := off + n*sectionHeaderSize
	if endOfData < headerEnd {
		endOfData = headerEnd
	}
	if endOfData < len(b) {
		f.Overlay = append([]byte(nil), b[endOfData:]...)
	}
	return f, nil
}

func parseOptional32(b []byte, o *OptionalHeader32) error {
	o.Magic = binary.LittleEndian.Uint16(b[0:])
	if o.Magic != opt32 {
		return fmt.Errorf("%w: optional magic %#x (want PE32 %#x)", ErrNotPE, o.Magic, opt32)
	}
	o.MajorLinkerVersion = b[2]
	o.MinorLinkerVersion = b[3]
	o.SizeOfCode = binary.LittleEndian.Uint32(b[4:])
	o.SizeOfInitializedData = binary.LittleEndian.Uint32(b[8:])
	o.SizeOfUninitializedData = binary.LittleEndian.Uint32(b[12:])
	o.AddressOfEntryPoint = binary.LittleEndian.Uint32(b[16:])
	o.BaseOfCode = binary.LittleEndian.Uint32(b[20:])
	o.BaseOfData = binary.LittleEndian.Uint32(b[24:])
	o.ImageBase = binary.LittleEndian.Uint32(b[28:])
	o.SectionAlignment = binary.LittleEndian.Uint32(b[32:])
	o.FileAlignment = binary.LittleEndian.Uint32(b[36:])
	o.MajorOperatingSystemVersion = binary.LittleEndian.Uint16(b[40:])
	o.MinorOperatingSystemVersion = binary.LittleEndian.Uint16(b[42:])
	o.MajorImageVersion = binary.LittleEndian.Uint16(b[44:])
	o.MinorImageVersion = binary.LittleEndian.Uint16(b[46:])
	o.MajorSubsystemVersion = binary.LittleEndian.Uint16(b[48:])
	o.MinorSubsystemVersion = binary.LittleEndian.Uint16(b[50:])
	o.Win32VersionValue = binary.LittleEndian.Uint32(b[52:])
	o.SizeOfImage = binary.LittleEndian.Uint32(b[56:])
	o.SizeOfHeaders = binary.LittleEndian.Uint32(b[60:])
	o.CheckSum = binary.LittleEndian.Uint32(b[64:])
	o.Subsystem = binary.LittleEndian.Uint16(b[68:])
	o.DllCharacteristics = binary.LittleEndian.Uint16(b[70:])
	o.SizeOfStackReserve = binary.LittleEndian.Uint32(b[72:])
	o.SizeOfStackCommit = binary.LittleEndian.Uint32(b[76:])
	o.SizeOfHeapReserve = binary.LittleEndian.Uint32(b[80:])
	o.SizeOfHeapCommit = binary.LittleEndian.Uint32(b[84:])
	o.LoaderFlags = binary.LittleEndian.Uint32(b[88:])
	o.NumberOfRvaAndSizes = binary.LittleEndian.Uint32(b[92:])
	for i := 0; i < numDataDirs; i++ {
		o.DataDirectories[i].VirtualAddress = binary.LittleEndian.Uint32(b[96+8*i:])
		o.DataDirectories[i].Size = binary.LittleEndian.Uint32(b[100+8*i:])
	}
	if o.SectionAlignment == 0 || o.FileAlignment == 0 {
		return fmt.Errorf("%w: zero alignment", ErrBadAlignment)
	}
	return nil
}

// SectionByName returns the first section with the given name, or nil.
func (f *File) SectionByName(name string) *Section {
	for _, s := range f.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SectionAt returns the section containing the given RVA, or nil.
func (f *File) SectionAt(rva uint32) *Section {
	for _, s := range f.Sections {
		if s.Contains(rva) {
			return s
		}
	}
	return nil
}

// CodeSections returns all executable sections in table order.
func (f *File) CodeSections() []*Section {
	var out []*Section
	for _, s := range f.Sections {
		if s.IsCode() {
			out = append(out, s)
		}
	}
	return out
}

// DataSections returns all initialized writable data sections in table order.
func (f *File) DataSections() []*Section {
	var out []*Section
	for _, s := range f.Sections {
		if s.IsData() {
			out = append(out, s)
		}
	}
	return out
}

// RVAToOffset converts an RVA to a file offset. The second return value is
// false when the RVA is not backed by raw data in any section.
func (f *File) RVAToOffset(rva uint32) (uint32, bool) {
	s := f.SectionAt(rva)
	if s == nil {
		return 0, false
	}
	delta := rva - s.VirtualAddress
	if delta >= s.SizeOfRawData {
		return 0, false
	}
	return s.PointerToRawData + delta, true
}

// EntrySection returns the section containing the entry point, or nil.
func (f *File) EntrySection() *Section {
	return f.SectionAt(f.Optional.AddressOfEntryPoint)
}
