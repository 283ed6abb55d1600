package volume

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization: a little-endian header (magic, size) followed
// by raw float64 samples. This stands in for the lab's map/image file
// formats; a master node reads whole files and distributes segments,
// exactly as §3 of the paper assumes.

const (
	gridMagic  = 0x4d504456 // "VDPM"
	imageMagic = 0x4d494456 // "VDIM"
)

// WriteGrid serializes g to w.
func (g *Grid) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	hdr := []uint32{gridMagic, uint32(g.L)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Data); err != nil {
		return 0, err
	}
	n := int64(8 + 8*len(g.Data))
	return n, bw.Flush()
}

// ReadGrid deserializes a grid written by Grid.WriteTo. The payload
// is decoded in bounded chunks, so a header claiming more voxels than
// the input holds fails after at most one chunk of allocation instead
// of reserving the claimed l³ up front; bytes after the payload are
// rejected.
func ReadGrid(r io.Reader) (*Grid, error) {
	br := bufio.NewReader(r)
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("volume: reading grid header: %w", err)
	}
	if hdr[0] != gridMagic {
		return nil, fmt.Errorf("volume: bad grid magic %#x", hdr[0])
	}
	l := int(hdr[1])
	if l < 1 || l > 4096 {
		return nil, fmt.Errorf("volume: implausible grid size %d", l)
	}
	data, err := readFloats(br, l*l*l)
	if err != nil {
		return nil, fmt.Errorf("volume: reading grid data: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("volume: trailing bytes after %d³ grid data", l)
		}
		return nil, fmt.Errorf("volume: reading grid data: %w", err)
	}
	return &Grid{L: l, Data: data}, nil
}

// readFloats decodes n little-endian float64 samples from r in chunks,
// growing the result only as the bytes arrive: a truncated payload
// costs at most one chunk past the data actually present, and the
// returned slice has capacity exactly n.
func readFloats(r io.Reader, n int) ([]float64, error) {
	const chunk = 1 << 13 // samples per read (64 KiB)
	buf := make([]byte, 8*min(n, chunk))
	var data []float64
	for len(data) < n {
		m := min(n-len(data), chunk)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(data)+m > cap(data) {
			grown := make([]float64, len(data), min(n, max(2*cap(data), len(data)+m)))
			copy(grown, data)
			data = grown
		}
		for i := 0; i < m; i++ {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
	}
	return data, nil
}

// WriteTo serializes im to w.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	hdr := []uint32{imageMagic, uint32(im.L)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, im.Data); err != nil {
		return 0, err
	}
	n := int64(8 + 8*len(im.Data))
	return n, bw.Flush()
}

// ReadImage deserializes an image written by Image.WriteTo, decoding
// the payload in bounded chunks like ReadGrid.
func ReadImage(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("volume: reading image header: %w", err)
	}
	if hdr[0] != imageMagic {
		return nil, fmt.Errorf("volume: bad image magic %#x", hdr[0])
	}
	l := int(hdr[1])
	if l < 1 || l > 65536 {
		return nil, fmt.Errorf("volume: implausible image size %d", l)
	}
	data, err := readFloats(br, l*l)
	if err != nil {
		return nil, fmt.Errorf("volume: reading image data: %w", err)
	}
	return &Image{L: l, Data: data}, nil
}

// WritePGM renders the image as a binary 8-bit PGM, linearly mapping
// [min, max] to [0, 255]. Used to export density cross-sections like
// the paper's Fig. 2.
func (im *Image) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.L, im.L); err != nil {
		return err
	}
	min, max, _, _ := im.Stats()
	span := max - min
	if span == 0 {
		span = 1
	}
	for j := 0; j < im.L; j++ {
		for k := 0; k < im.L; k++ {
			v := (im.At(j, k) - min) / span
			b := byte(math.Round(255 * v))
			if err := bw.WriteByte(b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
