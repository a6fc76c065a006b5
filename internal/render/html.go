package render

import (
	"encoding/json"
	"fmt"
	"html/template"
	"image/color"
	"io"

	"repro/internal/terrain"
)

// TerrainHTML writes a single self-contained HTML file that renders
// the terrain interactively in the browser: the nested-boundary
// geometry is embedded as JSON and a small canvas script draws the
// isometric view with mouse-drag rotation and wheel zoom — the
// paper's rotate/zoom interactions in a file that can be mailed to a
// collaborator with no server or dependencies.
func TerrainHTML(w io.Writer, l *terrain.Layout, nodeColors []color.RGBA, title string) error {
	rects, height := l.Rects(), l.ST.Scalar
	if len(nodeColors) != len(rects) {
		return fmt.Errorf("render: %d colors for %d boundaries", len(nodeColors), len(rects))
	}
	type node struct {
		X0, Y0, X1, Y1 float64
		H              float64
		C              string
		P              int32
	}
	nodes := make([]node, len(rects))
	minH, maxH := height[0], height[0]
	for _, h := range height {
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	for s, r := range rects {
		c := nodeColors[s]
		nodes[s] = node{
			X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1,
			H: height[s],
			C: fmt.Sprintf("#%02x%02x%02x", c.R, c.G, c.B),
			P: l.ST.Parent[s],
		}
	}
	payload, err := json.Marshal(struct {
		Nodes      []node
		MinH, MaxH float64
	}{nodes, minH, maxH})
	if err != nil {
		return err
	}
	return htmlTmpl.Execute(w, struct {
		Title string
		Data  template.JS
	}{title, template.JS(payload)})
}

var htmlTmpl = template.Must(template.New("terrain").Parse(`<!doctype html>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>body{margin:0;font-family:sans-serif;background:#fafaf8}
#hud{position:fixed;top:8px;left:8px;color:#555;font-size:13px}</style>
<canvas id="c"></canvas>
<div id="hud">{{.Title}} — drag to rotate, wheel to zoom</div>
<script>
const DATA = {{.Data}};
const canvas = document.getElementById('c');
const ctx = canvas.getContext('2d');
let angle = 0.6, zoom = 1, drag = null;
function resize(){ canvas.width = innerWidth; canvas.height = innerHeight; draw(); }
addEventListener('resize', resize);
canvas.addEventListener('mousedown', e => drag = e.clientX);
addEventListener('mouseup', () => drag = null);
addEventListener('mousemove', e => {
  if (drag !== null) { angle += (e.clientX - drag) * 0.01; drag = e.clientX; draw(); }
});
canvas.addEventListener('wheel', e => {
  e.preventDefault();
  zoom *= e.deltaY < 0 ? 1.1 : 0.9;
  zoom = Math.max(0.3, Math.min(8, zoom));
  draw();
}, {passive: false});

// Isometric projection of layout-space (x, y, h) to screen.
function project(x, y, h) {
  const cx = x - 0.5, cy = y - 0.5;
  const rx = cx * Math.cos(angle) - cy * Math.sin(angle);
  const ry = cx * Math.sin(angle) + cy * Math.cos(angle);
  const span = DATA.MaxH > DATA.MinH ? DATA.MaxH - DATA.MinH : 1;
  const hn = (h - DATA.MinH) / span;
  const s = Math.min(canvas.width, canvas.height) * 0.55 * zoom;
  return [canvas.width/2 + rx * s,
          canvas.height*0.62 + ry * s * 0.5 - hn * canvas.height * 0.35 * zoom];
}
function shade(hex, f) {
  const n = parseInt(hex.slice(1), 16);
  const r = Math.round(((n>>16)&255)*f), g = Math.round(((n>>8)&255)*f), b = Math.round((n&255)*f);
  return 'rgb(' + r + ',' + g + ',' + b + ')';
}
function draw() {
  ctx.fillStyle = '#fafaf8';
  ctx.fillRect(0, 0, canvas.width, canvas.height);
  // Paint plateaus back-to-front: sort by projected depth of center.
  const order = DATA.Nodes.map((n, i) => i);
  order.sort((a, b) => {
    const na = DATA.Nodes[a], nb = DATA.Nodes[b];
    const da = ((na.X0+na.X1)/2-0.5)*Math.sin(angle) + ((na.Y0+na.Y1)/2-0.5)*Math.cos(angle);
    const db = ((nb.X0+nb.X1)/2-0.5)*Math.sin(angle) + ((nb.Y0+nb.Y1)/2-0.5)*Math.cos(angle);
    return da - db || na.H - nb.H;
  });
  for (const i of order) {
    const n = DATA.Nodes[i];
    if (n.X1 <= n.X0 || n.Y1 <= n.Y0) continue;
    const base = n.P >= 0 ? DATA.Nodes[n.P].H : DATA.MinH;
    const corners = [[n.X0,n.Y0],[n.X1,n.Y0],[n.X1,n.Y1],[n.X0,n.Y1]];
    // Walls from parent height up to this plateau.
    for (let k = 0; k < 4; k++) {
      const [ax, ay] = corners[k], [bx, by] = corners[(k+1)%4];
      const p1 = project(ax, ay, base), p2 = project(bx, by, base);
      const p3 = project(bx, by, n.H), p4 = project(ax, ay, n.H);
      ctx.beginPath();
      ctx.moveTo(p1[0], p1[1]); ctx.lineTo(p2[0], p2[1]);
      ctx.lineTo(p3[0], p3[1]); ctx.lineTo(p4[0], p4[1]);
      ctx.closePath();
      ctx.fillStyle = shade(n.C, 0.75);
      ctx.fill();
    }
    // Plateau top.
    ctx.beginPath();
    const t0 = project(n.X0, n.Y0, n.H);
    ctx.moveTo(t0[0], t0[1]);
    for (let k = 1; k < 4; k++) {
      const [x, y] = corners[k];
      const p = project(x, y, n.H);
      ctx.lineTo(p[0], p[1]);
    }
    ctx.closePath();
    ctx.fillStyle = n.C;
    ctx.fill();
    ctx.strokeStyle = shade(n.C, 0.6);
    ctx.stroke();
  }
}
resize();
</script>
`))
