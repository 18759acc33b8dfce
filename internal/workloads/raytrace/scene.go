package raytrace

import (
	"math"
	"sync"
)

// The renderer is real: tiles of rays are cast against a procedurally
// generated sphere scene and shaded, and the pixel checksum is carried
// into the simulated critical section. The simulator charges ticks
// proportional to the intersection tests actually performed, so the
// virtual cost tracks the genuine computation (SPLASH-2X Raytrace casts
// rays against a teapot; we cast against spheres).

// vec3 is a 3-component vector.
type vec3 struct{ x, y, z float64 }

func (a vec3) sub(b vec3) vec3      { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) dot(b vec3) float64   { return a.x*b.x + a.y*b.y + a.z*b.z }
func (a vec3) scale(s float64) vec3 { return vec3{a.x * s, a.y * s, a.z * s} }
func (a vec3) add(b vec3) vec3      { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }

func (a vec3) norm() vec3 {
	l := math.Sqrt(a.dot(a))
	if l == 0 {
		return a
	}
	return a.scale(1 / l)
}

// sphere is one scene primitive.
type sphere struct {
	center vec3
	radius float64
	albedo float64
}

// scene is the procedurally generated world. Its camera constants are
// derived on first use, so a scene is not safe for concurrent use; the
// workload's one scene lives inside the tile table's fill (see tiles).
type scene struct {
	spheres []sphere
	light   vec3
	// cam holds each sphere's primary-ray constants, derived on the
	// first renderTile (see camera).
	cam []camSphere
}

// eye is the origin of every primary ray.
var eye = vec3{0, 0, -10}

// camSphere is the part of intersect that depends only on the ray
// origin, evaluated once per sphere for origin = eye with intersect's
// own expressions, so primary-ray hits are bit-identical.
type camSphere struct {
	oc vec3    // eye − center
	c  float64 // |eye − center|² − r²
}

// camera returns the primary-ray constants of every sphere, deriving
// them on first use. Deriving them here rather than in newScene gives
// scenes built as literals the same constants.
func (s *scene) camera() []camSphere {
	if len(s.cam) != len(s.spheres) {
		s.cam = make([]camSphere, len(s.spheres))
		for i, sp := range s.spheres {
			oc := eye.sub(sp.center)
			s.cam[i] = camSphere{oc: oc, c: oc.dot(oc) - sp.radius*sp.radius}
		}
	}
	return s.cam
}

// newScene builds n spheres on a deterministic spiral.
func newScene(n int) *scene {
	s := &scene{light: vec3{5, 8, -3}.norm()}
	for i := 0; i < n; i++ {
		t := float64(i) * 0.61803398875 // golden-ratio spiral
		r := 1.0 + float64(i%7)*0.25
		s.spheres = append(s.spheres, sphere{
			center: vec3{
				6 * math.Cos(2*math.Pi*t) * (1 + t/8),
				-2 + 0.8*float64(i%5),
				8 + 6*math.Sin(2*math.Pi*t)*(1+t/8),
			},
			radius: r,
			albedo: 0.3 + 0.1*float64(i%7),
		})
	}
	return s
}

// intersect returns the nearest hit distance and sphere index, or
// (inf, -1). tests counts intersection tests performed.
func (s *scene) intersect(origin, dir vec3) (dist float64, idx, tests int) {
	dist = math.Inf(1)
	idx = -1
	for i, sp := range s.spheres {
		tests++
		oc := origin.sub(sp.center)
		b := oc.dot(dir)
		c := oc.dot(oc) - sp.radius*sp.radius
		disc := b*b - c
		if disc <= 0 {
			continue
		}
		t := -b - math.Sqrt(disc)
		if t > 1e-4 && t < dist {
			dist = t
			idx = i
		}
	}
	return dist, idx, tests
}

// intersectEye is intersect for a ray from the eye, reading the
// origin-dependent terms from cam.
func intersectEye(cam []camSphere, dir vec3) (dist float64, idx int) {
	dist = math.Inf(1)
	idx = -1
	for i := range cam {
		b := cam[i].oc.dot(dir)
		disc := b*b - cam[i].c
		if disc <= 0 {
			continue
		}
		t := -b - math.Sqrt(disc)
		if t > 1e-4 && t < dist {
			dist = t
			idx = i
		}
	}
	return dist, idx
}

const (
	// tileSize is the square tile edge in pixels.
	tileSize = 8
	// tilesPerRow is the tile grid's edge. Tile ids wrap at
	// tilesPerRow², so a tile's image depends only on its id mod
	// tileCount.
	tilesPerRow = 64
	tileCount   = tilesPerRow * tilesPerRow
)

// renderTile casts tileSize² rays for tile id, returning a pixel-sum
// checksum and the number of intersection tests (the cost driver).
func (s *scene) renderTile(tile int) (checksum float64, tests int) {
	tx, ty := tile%tilesPerRow, (tile/tilesPerRow)%tilesPerRow
	cam := s.camera()
	for py := 0; py < tileSize; py++ {
		for px := 0; px < tileSize; px++ {
			u := (float64(tx*tileSize+px)/float64(tilesPerRow*tileSize) - 0.5) * 2
			v := (float64(ty*tileSize+py)/float64(tilesPerRow*tileSize) - 0.5) * 2
			dir := vec3{u, v, 1}.norm()
			d, idx := intersectEye(cam, dir)
			tests += len(cam)
			if idx < 0 {
				checksum += 0.05 // sky
				continue
			}
			// Lambertian shading with a shadow ray.
			hit := eye.add(dir.scale(d))
			normal := hit.sub(s.spheres[idx].center).norm()
			_, shadowIdx, n2 := s.intersect(hit.add(normal.scale(1e-3)), s.light)
			tests += n2
			lambert := normal.dot(s.light)
			if lambert < 0 || shadowIdx >= 0 {
				lambert = 0
			}
			checksum += s.spheres[idx].albedo * lambert
		}
	}
	return checksum, tests
}

// renderedTile is renderTile's result for one tile.
type renderedTile struct {
	checksum float64
	tests    int
}

// tiles is every distinct tile of the workload's scene, rendered once
// per process on the first call. renderTile is a pure function of the
// scene and the tile id mod tileCount, and every workload renders
// newScene(24), so each entry is bit for bit what a dispatch of that
// tile would render: no cell's output depends on which cell, worker or
// goroutine filled the table.
var tiles = sync.OnceValue(renderTiles)

// renderTiles renders the workload's scene, newScene(24), tile by tile.
func renderTiles() *[tileCount]renderedTile {
	s := newScene(24)
	t := new([tileCount]renderedTile)
	for i := range t {
		t[i].checksum, t[i].tests = s.renderTile(i)
	}
	return t
}
