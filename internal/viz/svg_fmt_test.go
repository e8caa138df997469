package viz

import (
	"fmt"
	"html"
	"math"
	"strings"
)

// svgFmt is the fmt-based renderer Spec.SVG replaced, kept as the
// oracle its bytes are checked against (FuzzSVGMatchesFmt).
func svgFmt(s Spec, width, height int) string {
	if width < 160 {
		width = 160
	}
	if height < 120 {
		height = 120
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`,
		width, height, width, height)
	fmt.Fprintf(&b, `<text x="%d" y="16" text-anchor="middle" font-size="13" font-weight="bold">%s</text>`,
		width/2, html.EscapeString(s.Title))
	if s.Subtitle != "" {
		fmt.Fprintf(&b, `<text x="%d" y="30" text-anchor="middle" font-size="10" fill="#666">%s</text>`,
			width/2, html.EscapeString(s.Subtitle))
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
		b.WriteString(`<text x="20" y="60" font-size="11">(no data)</text></svg>`)
		return b.String()
	}

	min, max := math.Min(0, s.minValue()), s.maxValue()
	if max == min {
		max = min + 1
	}
	yOf := func(v float64) float64 {
		return float64(padTop) + (max-v)/(max-min)*float64(plotH)
	}

	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`,
		padLeft, padTop, padLeft, padTop+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#333"/>`,
		padLeft, yOf(0), padLeft+plotW, yOf(0))
	for i := 0; i <= 4; i++ {
		v := min + (max-min)*float64(i)/4
		y := yOf(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`,
			padLeft, y, padLeft+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" font-size="9" fill="#666">%s</text>`,
			padLeft-4, y+3, fmtTickFmt(v))
	}

	switch s.Type {
	case LineChart:
		svgLinesFmt(s, &b, yOf, padLeft, plotW)
	default:
		svgBarsFmt(s, &b, yOf, padLeft, plotW)
	}

	step := 1
	if len(s.Keys) > 12 {
		step = (len(s.Keys) + 11) / 12
	}
	band := float64(plotW) / float64(len(s.Keys))
	for i := 0; i < len(s.Keys); i += step {
		x := float64(padLeft) + band*(float64(i)+0.5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="end" font-size="9" fill="#333" transform="rotate(-35 %.1f %d)">%s</text>`,
			x, padTop+plotH+12, x, padTop+plotH+12, html.EscapeString(truncate(s.Keys[i], 14)))
	}

	lx := padLeft
	ly := height - 8
	for i, ser := range s.Series {
		color := svgPalette[i%len(svgPalette)]
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="9" height="9" fill="%s"/>`, lx, ly-9, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" fill="#333">%s</text>`,
			lx+12, ly, html.EscapeString(ser.Name))
		lx += 14 + 7*len(ser.Name)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func svgBarsFmt(s Spec, b *strings.Builder, yOf func(float64) float64, padLeft, plotW int) {
	band := float64(plotW) / float64(len(s.Keys))
	inner := band * 0.8
	barW := inner / float64(len(s.Series))
	zero := yOf(0)
	for i := range s.Keys {
		x0 := float64(padLeft) + band*float64(i) + band*0.1
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
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s: %g</title></rect>`,
				x0+barW*float64(si), top, barW*0.92, h,
				svgPalette[si%len(svgPalette)],
				html.EscapeString(s.Keys[i]), v)
		}
	}
}

func svgLinesFmt(s Spec, b *strings.Builder, yOf func(float64) float64, padLeft, plotW int) {
	band := float64(plotW) / float64(len(s.Keys))
	for si, ser := range s.Series {
		color := svgPalette[si%len(svgPalette)]
		var pts []string
		for i, v := range ser.Values {
			x := float64(padLeft) + band*(float64(i)+0.5)
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, yOf(v)))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`,
			strings.Join(pts, " "), color)
		for i, v := range ser.Values {
			x := float64(padLeft) + band*(float64(i)+0.5)
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"><title>%s: %g</title></circle>`,
				x, yOf(v), color, html.EscapeString(s.Keys[i]), v)
		}
	}
}

func fmtTickFmt(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case a == 0:
		return "0"
	case a < 0.01:
		return fmt.Sprintf("%.1e", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
