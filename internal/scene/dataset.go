package scene

import (
	"fmt"
	"math"

	"livo/internal/camera"
	"livo/internal/frame"
	"livo/internal/geom"
)

// VideoSpec describes one dataset video (Table 3).
type VideoSpec struct {
	Name     string
	Desc     string
	Duration float64 // seconds
	Objects  int     // people + props, as counted by Table 3
	FPS      int
}

// Dataset returns the five videos of Table 3.
func Dataset() []VideoSpec {
	return []VideoSpec{
		{Name: "band2", Desc: "Musical performance", Duration: 197, Objects: 9, FPS: 30},
		{Name: "dance5", Desc: "Dance", Duration: 333, Objects: 1, FPS: 30},
		{Name: "office1", Desc: "Person working", Duration: 187, Objects: 7, FPS: 30},
		{Name: "pizza1", Desc: "Food and party", Duration: 47, Objects: 14, FPS: 30},
		{Name: "toddler4", Desc: "A child playing games", Duration: 127, Objects: 3, FPS: 30},
	}
}

// VideoNames returns the dataset video names in Table 3 order.
func VideoNames() []string {
	specs := Dataset()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// skin/cloth palettes cycled across people so every person looks different.
var skinTones = [][3]uint8{{224, 172, 105}, {198, 134, 66}, {141, 85, 36}, {255, 219, 172}}
var clothTones = [][3]uint8{{180, 40, 40}, {40, 80, 180}, {40, 150, 60}, {200, 170, 40}, {130, 60, 160}, {220, 120, 30}}

// Person builds an articulated human model: head, torso, two arms, two
// legs. scale 1.0 is an adult (~1.75 m); a toddler uses ~0.55. The model's
// origin is at the feet so Motion poses place people on the floor.
func Person(idx int, scale float64, armSwing, legSwing, swingFreq float64) Object {
	skin := skinTones[idx%len(skinTones)]
	cloth := clothTones[idx%len(clothTones)]
	cloth2 := clothTones[(idx+3)%len(clothTones)]
	s := scale
	legLen := 0.85 * s
	torsoH := 0.60 * s
	headR := 0.11 * s
	hip := geom.V3(0, legLen, 0)
	shoulder := geom.V3(0, legLen+torsoH*0.92, 0)

	parts := []Part{
		// Torso.
		{Prim: Ellipsoid{
			Center: geom.V3(0, legLen+torsoH/2, 0),
			Radii:  geom.V3(0.18*s, torsoH/2, 0.12*s),
			Base:   cloth, Accent: cloth2, Bands: 18,
		}},
		// Head.
		{Prim: Ellipsoid{
			Center: geom.V3(0, legLen+torsoH+headR*1.25, 0),
			Radii:  geom.V3(headR, headR*1.25, headR),
			Base:   skin, Accent: [3]uint8{60, 40, 20}, Bands: 9,
		}},
	}
	// Arms and legs: capsule-ish ellipsoids that swing about their joints.
	armLen := 0.55 * s
	for side := -1.0; side <= 1.0; side += 2 {
		phase := 0.0
		if side > 0 {
			phase = math.Pi // opposite arms swing out of phase
		}
		parts = append(parts, Part{
			Prim: Ellipsoid{
				Center: geom.V3(side*0.22*s, legLen+torsoH*0.9-armLen/2, 0),
				Radii:  geom.V3(0.05*s, armLen/2, 0.05*s),
				Base:   skin, Accent: cloth, Bands: 14,
			},
			Swing: armSwing, SwingFreq: swingFreq, SwingPhase: phase,
			SwingPivot: geom.V3(side*0.22*s, shoulder.Y, 0),
		})
		parts = append(parts, Part{
			Prim: Ellipsoid{
				Center: geom.V3(side*0.09*s, legLen/2, 0),
				Radii:  geom.V3(0.07*s, legLen/2, 0.07*s),
				Base:   cloth2, Accent: [3]uint8{30, 30, 30}, Bands: 10,
			},
			Swing: legSwing, SwingFreq: swingFreq, SwingPhase: phase + math.Pi,
			SwingPivot: geom.V3(side*0.09*s, hip.Y, 0),
		})
	}
	return Object{Name: fmt.Sprintf("person%d", idx), Primitives: parts}
}

// prop builds a simple box prop (instrument case, toy, food tray...).
func prop(name string, size geom.Vec3, base, accent [3]uint8) Object {
	half := size.Scale(0.5)
	return Object{
		Name: name,
		Primitives: []Part{{Prim: Box{
			Min: geom.V3(-half.X, 0, -half.Z), Max: geom.V3(half.X, size.Y, half.Z),
			Base: base, Accent: accent, Checker: 0.12,
		}}},
	}
}

// backdrop is the floor plus two walls; it is not counted in NumObjects.
func backdrop() Object {
	return Object{
		Name:   "backdrop",
		Motion: StaticMotion{Pose: geom.PoseIdentity},
		Primitives: []Part{
			{Prim: Box{ // floor
				Min: geom.V3(-4, -0.1, -4), Max: geom.V3(4, 0, 4),
				Base: [3]uint8{110, 100, 90}, Accent: [3]uint8{90, 82, 75}, Checker: 0.5,
			}},
		},
	}
}

func at(x, z float64) geom.Pose {
	return geom.Pose{Position: geom.V3(x, 0, z), Rotation: geom.QuatIdentity}
}

// BuildScene constructs the named dataset video's scene. It returns an
// error for unknown names.
func BuildScene(name string) (*Scene, VideoSpec, error) {
	var spec VideoSpec
	for _, s := range Dataset() {
		if s.Name == name {
			spec = s
			break
		}
	}
	if spec.Name == "" {
		return nil, VideoSpec{}, fmt.Errorf("scene: unknown video %q", name)
	}
	sc := &Scene{Static: []Object{backdrop()}}
	addStatic := func(o Object, pose geom.Pose) {
		o.Motion = StaticMotion{Pose: pose}
		sc.Static = append(sc.Static, o)
	}
	addSway := func(o Object, base geom.Pose, amp geom.Vec3, freq, yaw, phase float64) {
		o.Motion = SwayMotion{Base: base, Amplitude: amp, Freq: freq, YawAmp: yaw, Phase: phase}
		sc.Dynamic = append(sc.Dynamic, o)
	}

	switch name {
	case "band2": // 6 musicians + 3 instrument props = 9 objects
		for i := 0; i < 6; i++ {
			ang := 2 * math.Pi * float64(i) / 6
			base := at(1.1*math.Cos(ang), 1.1*math.Sin(ang))
			addSway(Person(i, 1.0, 0.5, 0.12, 1.4+0.1*float64(i)),
				base, geom.V3(0.06, 0.02, 0.06), 0.9, 0.25, float64(i))
		}
		addStatic(prop("amp", geom.V3(0.5, 0.5, 0.4), [3]uint8{30, 30, 30}, [3]uint8{80, 80, 80}), at(0, 0))
		addStatic(prop("case1", geom.V3(0.9, 0.3, 0.35), [3]uint8{70, 40, 20}, [3]uint8{110, 70, 40}), at(-1.9, 1.2))
		addStatic(prop("case2", geom.V3(0.7, 0.25, 0.3), [3]uint8{20, 20, 60}, [3]uint8{60, 60, 120}), at(1.8, -1.3))
	case "dance5": // 1 dancer, large motion
		d := Person(0, 1.0, 1.1, 0.8, 1.8)
		d.Motion = OrbitMotion{Center: geom.V3(0, 0, 0), Radius: 0.9, Period: 11}
		sc.Dynamic = append(sc.Dynamic, d)
	case "office1": // 1 worker + desk + chair + 4 props = 7 objects
		addSway(Person(2, 1.0, 0.35, 0.05, 0.8),
			at(0, -0.45), geom.V3(0.05, 0.015, 0.03), 0.5, 0.3, 0)
		addStatic(prop("desk", geom.V3(1.5, 0.75, 0.7), [3]uint8{120, 85, 50}, [3]uint8{140, 105, 70}), at(0, 0.45))
		addStatic(prop("chair", geom.V3(0.5, 0.9, 0.5), [3]uint8{40, 40, 45}, [3]uint8{70, 70, 75}), at(-1.0, -0.5))
		addStatic(prop("monitor", geom.V3(0.6, 0.4, 0.08), [3]uint8{15, 15, 18}, [3]uint8{40, 44, 60}), geom.Pose{Position: geom.V3(0, 0.75, 0.55), Rotation: geom.QuatIdentity})
		addStatic(prop("shelf", geom.V3(0.8, 1.7, 0.35), [3]uint8{150, 140, 120}, [3]uint8{120, 112, 95}), at(1.8, 1.4))
		addStatic(prop("plant", geom.V3(0.3, 0.8, 0.3), [3]uint8{30, 120, 40}, [3]uint8{60, 160, 70}), at(-1.8, 1.5))
		addStatic(prop("bin", geom.V3(0.3, 0.4, 0.3), [3]uint8{90, 90, 95}, [3]uint8{120, 120, 128}), at(1.2, -1.4))
	case "pizza1": // 6 people + table + 7 food/props = 14 objects
		for i := 0; i < 6; i++ {
			ang := 2*math.Pi*float64(i)/6 + 0.3
			base := at(1.35*math.Cos(ang), 1.35*math.Sin(ang))
			addSway(Person(i, 1.0, 0.6, 0.1, 1.1+0.07*float64(i)),
				base, geom.V3(0.08, 0.02, 0.08), 0.7+0.05*float64(i), 0.4, 1.3*float64(i))
		}
		addStatic(prop("table", geom.V3(1.4, 0.72, 1.4), [3]uint8{140, 100, 60}, [3]uint8{160, 120, 80}), at(0, 0))
		for i := 0; i < 7; i++ {
			ang := 2 * math.Pi * float64(i) / 7
			p := prop(fmt.Sprintf("food%d", i), geom.V3(0.22, 0.06, 0.22),
				[3]uint8{220, 180, 90}, [3]uint8{200, 60, 40})
			addStatic(p, geom.Pose{
				Position: geom.V3(0.5*math.Cos(ang), 0.72, 0.5*math.Sin(ang)),
				Rotation: geom.QuatIdentity,
			})
		}
	case "toddler4": // 1 child + 2 toys = 3 objects
		c := Person(3, 0.55, 0.9, 0.5, 1.5)
		c.Motion = OrbitMotion{Center: geom.V3(0.2, 0, 0.1), Radius: 0.6, Period: 9}
		sc.Dynamic = append(sc.Dynamic, c)
		addStatic(prop("toybox", geom.V3(0.5, 0.35, 0.4), [3]uint8{200, 60, 60}, [3]uint8{60, 60, 200}), at(1.2, 0.8))
		addStatic(prop("ball", geom.V3(0.25, 0.25, 0.25), [3]uint8{230, 200, 40}, [3]uint8{40, 160, 220}), at(-1.0, -0.7))
	}
	return sc, spec, nil
}

// Video couples a scene with a camera array and renders frames on demand —
// the trace-replay input of §4.1 ("reads RGB-D frames from disk at 30 fps
// and feeds them into LiVo sender"; we render instead of reading).
type Video struct {
	Spec     VideoSpec
	Scene    *Scene
	Array    camera.Array
	Config   CaptureConfig
	renderer *Renderer
}

// CaptureConfig selects the capture rig resolution and geometry.
type CaptureConfig struct {
	Cameras    int // number of RGB-D cameras in the ring
	Width      int // per-camera depth/color resolution
	Height     int
	HFov       float64 // horizontal field of view, radians
	RingRadius float64 // meters
	RingHeight float64
	MaxRange   float64 // depth sensor range, meters
	// DepthNoise is the time-of-flight sensor noise as a fraction of the
	// measured depth (Kinect-class sensors: ~0.5-1%); 0 disables it.
	// Noise is deterministic per (camera, pixel, frame).
	DepthNoise float64
	// ColorNoise is the color sensor noise amplitude in 8-bit levels.
	ColorNoise int
}

// DefaultCaptureConfig mirrors the paper's rig (10 Kinects) at the scaled
// working resolution used throughout tests and experiments (see DESIGN.md).
func DefaultCaptureConfig() CaptureConfig {
	return CaptureConfig{
		Cameras: 10, Width: 160, Height: 144,
		HFov:       math.Pi * 75 / 180,
		RingRadius: 2.6, RingHeight: 1.5, MaxRange: 6,
		DepthNoise: 0.0025, ColorNoise: 2,
	}
}

// OpenVideo builds the named video with the given capture configuration.
func OpenVideo(name string, cfg CaptureConfig) (*Video, error) {
	sc, spec, err := BuildScene(name)
	if err != nil {
		return nil, err
	}
	in := camera.NewIntrinsics(cfg.Width, cfg.Height, cfg.HFov)
	arr := camera.NewRing(cfg.Cameras, cfg.RingRadius, cfg.RingHeight, 0.9, in, cfg.MaxRange)
	return &Video{
		Spec:     spec,
		Scene:    sc,
		Array:    arr,
		Config:   cfg,
		renderer: NewRenderer(sc, arr),
	}, nil
}

// NumFrames returns the total frame count of the video.
func (v *Video) NumFrames() int { return int(v.Spec.Duration * float64(v.Spec.FPS)) }

// Frame renders frame idx (one RGB-D frame per camera), applying the
// configured sensor noise.
func (v *Video) Frame(idx int) []frame.RGBDFrame {
	t := float64(idx) / float64(v.Spec.FPS)
	views := v.renderer.RenderFrame(t)
	if v.Config.DepthNoise > 0 || v.Config.ColorNoise > 0 {
		for ci := range views {
			applySensorNoise(views[ci], ci, idx, v.Config.DepthNoise, v.Config.ColorNoise)
		}
	}
	return views
}

// applySensorNoise perturbs a rendered view like a real RGB-D camera:
// depth gets zero-mean noise proportional to distance, color gets small
// per-pixel noise. The noise is a deterministic hash of (camera, pixel,
// frame) so renders are reproducible.
func applySensorNoise(view frame.RGBDFrame, cam, frameIdx int, depthFrac float64, colorAmp int) {
	d := view.Depth
	c := view.Color
	for i, mm := range d.Pix {
		if mm == 0 {
			continue
		}
		h := noiseHash(uint64(cam)<<40 ^ uint64(frameIdx)<<20 ^ uint64(i))
		if depthFrac > 0 {
			// Triangular noise in [-1,1] from two uniform halves.
			n := (float64(h&0xFFFF)+float64(h>>16&0xFFFF))/65535 - 1
			nd := float64(mm) * (1 + depthFrac*n)
			if nd < 1 {
				nd = 1
			}
			if nd > 65535 {
				nd = 65535
			}
			d.Pix[i] = uint16(nd + 0.5)
		}
		if colorAmp > 0 {
			for ch := 0; ch < 3; ch++ {
				hn := int(noiseHash(h^uint64(ch+1))%uint64(2*colorAmp+1)) - colorAmp
				v := int(c.Pix[3*i+ch]) + hn
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				c.Pix[3*i+ch] = uint8(v)
			}
		}
	}
}

// noiseHash is splitmix64.
func noiseHash(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
