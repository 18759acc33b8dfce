package raytrace

import (
	"math"
	"testing"
)

func TestSceneIntersection(t *testing.T) {
	s := &scene{
		spheres: []sphere{{center: vec3{0, 0, 5}, radius: 1, albedo: 0.5}},
		light:   vec3{0, 1, 0},
	}
	// Ray straight at the sphere hits at distance 4.
	d, idx, tests := s.intersect(vec3{0, 0, 0}, vec3{0, 0, 1})
	if idx != 0 || math.Abs(d-4) > 1e-9 {
		t.Fatalf("hit = (%g, %d), want (4, 0)", d, idx)
	}
	if tests != 1 {
		t.Fatalf("tests = %d, want 1", tests)
	}
	// Ray pointing away misses.
	if _, idx, _ := s.intersect(vec3{0, 0, 0}, vec3{0, 0, -1}); idx != -1 {
		t.Fatal("backward ray should miss")
	}
	// Ray offset beyond the radius misses.
	if _, idx, _ := s.intersect(vec3{0, 2, 0}, vec3{0, 0, 1}); idx != -1 {
		t.Fatal("offset ray should miss")
	}
}

func TestSceneNearestHit(t *testing.T) {
	s := &scene{spheres: []sphere{
		{center: vec3{0, 0, 10}, radius: 1},
		{center: vec3{0, 0, 5}, radius: 1},
	}}
	d, idx, _ := s.intersect(vec3{0, 0, 0}, vec3{0, 0, 1})
	if idx != 1 || math.Abs(d-4) > 1e-9 {
		t.Fatalf("nearest hit = (%g, %d), want sphere 1 at 4", d, idx)
	}
}

func TestRenderTileDeterministic(t *testing.T) {
	s := newScene(24)
	c1, n1 := s.renderTile(100)
	c2, n2 := s.renderTile(100)
	if c1 != c2 || n1 != n2 {
		t.Fatalf("rendering not deterministic: (%g,%d) vs (%g,%d)", c1, n1, c2, n2)
	}
	if n1 < tileSize*tileSize*len(s.spheres) {
		t.Fatalf("too few intersection tests: %d", n1)
	}
	// Some tile in the view must actually shade geometry.
	found := false
	for tile := 0; tile < 4096; tile += 7 {
		c, _ := s.renderTile(tile)
		if c > float64(tileSize*tileSize)*0.05+1e-9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no tile ever hit a sphere — scene misplaced")
	}
}

func TestVecOps(t *testing.T) {
	a := vec3{1, 2, 3}
	b := vec3{4, 5, 6}
	if a.dot(b) != 32 {
		t.Fatalf("dot = %g", a.dot(b))
	}
	n := vec3{3, 0, 4}.norm()
	if math.Abs(n.dot(n)-1) > 1e-12 {
		t.Fatalf("norm not unit: %v", n)
	}
	z := vec3{}.norm()
	if z != (vec3{}) {
		t.Fatal("zero vector norm should stay zero")
	}
}

// refIntersect and refRenderTile are the renderer before the camera-ray
// constants were hoisted, kept as the bit-identical reference.
func (s *scene) refIntersect(origin, dir vec3) (dist float64, idx, tests int) {
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

func (s *scene) refRenderTile(tile int) (checksum float64, tests int) {
	const width = 64 // tiles per row
	tx, ty := tile%width, (tile/width)%width
	origin := vec3{0, 0, -10}
	for py := 0; py < tileSize; py++ {
		for px := 0; px < tileSize; px++ {
			u := (float64(tx*tileSize+px)/float64(width*tileSize) - 0.5) * 2
			v := (float64(ty*tileSize+py)/float64(width*tileSize) - 0.5) * 2
			dir := vec3{u, v, 1}.norm()
			d, idx, n := s.refIntersect(origin, dir)
			tests += n
			if idx < 0 {
				checksum += 0.05 // sky
				continue
			}
			hit := origin.add(dir.scale(d))
			normal := hit.sub(s.spheres[idx].center).norm()
			_, shadowIdx, n2 := s.refIntersect(hit.add(normal.scale(1e-3)), s.light)
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

// TestRenderTileMatchesReference: every one of the 4096 distinct tiles
// (tile ids wrap at 64×64) renders the reference's exact checksum bits
// and intersection-test count, on the workload's scene and on a scene
// built as a literal, whose camera constants are derived on first use.
func TestRenderTileMatchesReference(t *testing.T) {
	lit := &scene{light: vec3{0, 1, 0}, spheres: []sphere{
		{center: vec3{0, 0, 5}, radius: 1, albedo: 0.5},
		{center: vec3{1.5, 0.5, 8}, radius: 2, albedo: 0.9},
	}}
	for _, s := range []*scene{newScene(24), lit} {
		ref := &scene{spheres: s.spheres, light: s.light}
		for tile := 0; tile < 64*64; tile++ {
			c, n := s.renderTile(tile)
			rc, rn := ref.refRenderTile(tile)
			if math.Float64bits(c) != math.Float64bits(rc) || n != rn {
				t.Fatalf("%d spheres, tile %d: (%x, %d), reference (%x, %d)",
					len(s.spheres), tile, math.Float64bits(c), n, math.Float64bits(rc), rn)
			}
		}
	}
}
