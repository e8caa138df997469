package viz

import (
	"math"
	"strconv"
)

// Colors for the two standard series (target subset, overall).
var svgPalette = []string{"#2c7fb8", "#bdbdbd", "#e34a33", "#31a354"}

// SVG renders the chart as a standalone SVG document of the given
// pixel size. Bar specs render grouped vertical bars; line specs
// render polylines with point markers; table specs render a compact
// text grid. All text is escaped.
//
// The document is appended into one byte slice: integers through
// strconv.AppendInt, %g values through strconv.AppendFloat, and the
// one-decimal coordinates through appendF1's exact integer rounding.
// The bytes are those fmt's %d, %g and %.1f (and html.EscapeString)
// produce; svg_fmt_test.go keeps that renderer as the oracle.
func (s Spec) SVG(width, height int) string {
	if width < 160 {
		width = 160
	}
	if height < 120 {
		height = 120
	}
	b := make([]byte, 0, 1024+200*len(s.Keys)*(len(s.Series)+1))
	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, `" viewBox="0 0 `...)
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, `" font-family="sans-serif"><text x="`...)
	b = strconv.AppendInt(b, int64(width/2), 10)
	b = append(b, `" y="16" text-anchor="middle" font-size="13" font-weight="bold">`...)
	b = appendEscaped(b, s.Title)
	b = append(b, `</text>`...)
	if s.Subtitle != "" {
		b = append(b, `<text x="`...)
		b = strconv.AppendInt(b, int64(width/2), 10)
		b = append(b, `" y="30" text-anchor="middle" font-size="10" fill="#666">`...)
		b = appendEscaped(b, s.Subtitle)
		b = append(b, `</text>`...)
	}
	const (
		padLeft   = 48
		padRight  = 12
		padTop    = 40
		padBottom = 56
	)
	plotW := width - padLeft - padRight
	plotH := height - padTop - padBottom
	if len(s.Keys) == 0 || len(s.Series) == 0 || plotW <= 0 || plotH <= 0 {
		b = append(b, `<text x="20" y="60" font-size="11">(no data)</text></svg>`...)
		return string(b)
	}

	min, max := math.Min(0, s.minValue()), s.maxValue()
	if max == min {
		max = min + 1
	}
	yOf := func(v float64) float64 {
		return float64(padTop) + (max-v)/(max-min)*float64(plotH)
	}

	// Axes and y ticks.
	b = append(b, `<line x1="`...)
	b = strconv.AppendInt(b, padLeft, 10)
	b = append(b, `" y1="`...)
	b = strconv.AppendInt(b, padTop, 10)
	b = append(b, `" x2="`...)
	b = strconv.AppendInt(b, padLeft, 10)
	b = append(b, `" y2="`...)
	b = strconv.AppendInt(b, int64(padTop+plotH), 10)
	b = append(b, `" stroke="#333"/>`...)
	b = appendHLine(b, padLeft, padLeft+plotW, yOf(0), "#333")
	for i := 0; i <= 4; i++ {
		v := min + (max-min)*float64(i)/4
		y := yOf(v)
		b = appendHLine(b, padLeft, padLeft+plotW, y, "#eee")
		b = append(b, `<text x="`...)
		b = strconv.AppendInt(b, padLeft-4, 10)
		b = append(b, `" y="`...)
		b = appendF1(b, y+3)
		b = append(b, `" text-anchor="end" font-size="9" fill="#666">`...)
		b = appendTick(b, v)
		b = append(b, `</text>`...)
	}

	switch s.Type {
	case LineChart:
		b = s.svgLines(b, yOf, padLeft, plotW)
	default:
		b = s.svgBars(b, yOf, padLeft, plotW)
	}

	// X labels (sampled when crowded).
	step := 1
	if len(s.Keys) > 12 {
		step = (len(s.Keys) + 11) / 12
	}
	band := float64(plotW) / float64(len(s.Keys))
	labelY := int64(padTop + plotH + 12)
	for i := 0; i < len(s.Keys); i += step {
		x := float64(padLeft) + band*(float64(i)+0.5)
		b = append(b, `<text x="`...)
		b = appendF1(b, x)
		b = append(b, `" y="`...)
		b = strconv.AppendInt(b, labelY, 10)
		b = append(b, `" text-anchor="end" font-size="9" fill="#333" transform="rotate(-35 `...)
		b = appendF1(b, x)
		b = append(b, ' ')
		b = strconv.AppendInt(b, labelY, 10)
		b = append(b, `)">`...)
		b = appendEscaped(b, truncate(s.Keys[i], 14))
		b = append(b, `</text>`...)
	}

	// Legend.
	lx := padLeft
	ly := height - 8
	for i, ser := range s.Series {
		b = append(b, `<rect x="`...)
		b = strconv.AppendInt(b, int64(lx), 10)
		b = append(b, `" y="`...)
		b = strconv.AppendInt(b, int64(ly-9), 10)
		b = append(b, `" width="9" height="9" fill="`...)
		b = append(b, svgPalette[i%len(svgPalette)]...)
		b = append(b, `"/><text x="`...)
		b = strconv.AppendInt(b, int64(lx+12), 10)
		b = append(b, `" y="`...)
		b = strconv.AppendInt(b, int64(ly), 10)
		b = append(b, `" font-size="10" fill="#333">`...)
		b = appendEscaped(b, ser.Name)
		b = append(b, `</text>`...)
		lx += 14 + 7*len(ser.Name)
	}
	b = append(b, `</svg>`...)
	return string(b)
}

// appendHLine appends a horizontal line from x1 to x2 at height y.
func appendHLine(b []byte, x1, x2 int, y float64, stroke string) []byte {
	b = append(b, `<line x1="`...)
	b = strconv.AppendInt(b, int64(x1), 10)
	b = append(b, `" y1="`...)
	b = appendF1(b, y)
	b = append(b, `" x2="`...)
	b = strconv.AppendInt(b, int64(x2), 10)
	b = append(b, `" y2="`...)
	b = appendF1(b, y)
	b = append(b, `" stroke="`...)
	b = append(b, stroke...)
	return append(b, `"/>`...)
}

func (s Spec) svgBars(b []byte, yOf func(float64) float64, padLeft, plotW int) []byte {
	band := float64(plotW) / float64(len(s.Keys))
	inner := band * 0.8
	barW := inner / float64(len(s.Series))
	zero := yOf(0)
	var key []byte // the group's escaped key, shared by its bars
	for i := range s.Keys {
		x0 := float64(padLeft) + band*float64(i) + band*0.1
		key = appendEscaped(key[:0], s.Keys[i])
		for si, ser := range s.Series {
			if i >= len(ser.Values) {
				continue
			}
			v := ser.Values[i]
			y := yOf(v)
			top, h := y, zero-y
			if v < 0 {
				top, h = zero, y-zero
			}
			b = append(b, `<rect x="`...)
			b = appendF1(b, x0+barW*float64(si))
			b = append(b, `" y="`...)
			b = appendF1(b, top)
			b = append(b, `" width="`...)
			b = appendF1(b, barW*0.92)
			b = append(b, `" height="`...)
			b = appendF1(b, h)
			b = append(b, `" fill="`...)
			b = append(b, svgPalette[si%len(svgPalette)]...)
			b = append(b, `"><title>`...)
			b = append(b, key...)
			b = append(b, ": "...)
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, `</title></rect>`...)
		}
	}
	return b
}

func (s Spec) svgLines(b []byte, yOf func(float64) float64, padLeft, plotW int) []byte {
	band := float64(plotW) / float64(len(s.Keys))
	for si, ser := range s.Series {
		color := svgPalette[si%len(svgPalette)]
		b = append(b, `<polyline points="`...)
		for i, v := range ser.Values {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendF1(b, float64(padLeft)+band*(float64(i)+0.5))
			b = append(b, ',')
			b = appendF1(b, yOf(v))
		}
		b = append(b, `" fill="none" stroke="`...)
		b = append(b, color...)
		b = append(b, `" stroke-width="2"/>`...)
		for i, v := range ser.Values {
			x := float64(padLeft) + band*(float64(i)+0.5)
			b = append(b, `<circle cx="`...)
			b = appendF1(b, x)
			b = append(b, `" cy="`...)
			b = appendF1(b, yOf(v))
			b = append(b, `" r="2.5" fill="`...)
			b = append(b, color...)
			b = append(b, `"><title>`...)
			b = appendEscaped(b, s.Keys[i])
			b = append(b, ": "...)
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, `</title></circle>`...)
		}
	}
	return b
}

// appendTick appends a y-axis tick label: fmt's %.1fM, %.1fk, %.1e or
// %.3g by magnitude.
func appendTick(b []byte, v float64) []byte {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return append(strconv.AppendFloat(b, v/1e6, 'f', 1, 64), 'M')
	case a >= 1e3:
		return append(strconv.AppendFloat(b, v/1e3, 'f', 1, 64), 'k')
	case a == 0:
		return append(b, '0')
	case a < 0.01:
		return strconv.AppendFloat(b, v, 'e', 1, 64)
	default:
		return strconv.AppendFloat(b, v, 'g', 3, 64)
	}
}

// f1Exact bounds appendF1's integer kernel: below it, 10·|v| is an
// integer multiple of v's ulp that fits in 53 bits.
const f1Exact = (1 << 53) / 10

// appendF1 appends v as fmt's %.1f (strconv's 'f' with one decimal)
// does. A finite v = m·2^e with |v| < 2^53/10 is rounded exactly in
// integers: 10·m·2^e to the nearest integer, ties to even, which is
// the correctly rounded decimal strconv prints. Everything else (NaN,
// ±Inf, larger magnitudes) goes to strconv.
func appendF1(b []byte, v float64) []byte {
	if !(math.Abs(v) < f1Exact) {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	m := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, same scale as the smallest normal
	} else {
		m |= 1 << 52
	}
	// v = m·2^(exp-1075), and exp-1075 < 0 below f1Exact.
	x, shift := 10*m, uint(1075-exp)
	var n uint64
	if shift < 64 {
		n = x >> shift
		rem, half := x&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	} // else 10·m < 2^57 is below half of 2^shift: n rounds to 0
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, n/10, 10)
	return append(b, '.', byte('0'+n%10))
}

// appendEscaped appends s escaped as html.EscapeString escapes it.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&#34;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}
