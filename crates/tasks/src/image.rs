//! The image-processing side task: bilinear resize plus watermark blend.
//!
//! The paper adapts Nvidia's nvJPEG resize-and-watermark sample (§6.1.4):
//! each step takes one image, resizes it, and alpha-blends a watermark.
//! We run the same pixel arithmetic on synthetic RGB images.

use freeride_sim::DetRng;

/// An 8-bit RGB image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>, // RGB interleaved
}

impl Image {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image {
            width,
            height,
            pixels: vec![0; width * height * 3],
        }
    }

    /// Creates an image with deterministic pseudo-random content.
    pub fn synthetic(width: usize, height: usize, rng: &mut DetRng) -> Self {
        let mut img = Image::new(width, height);
        for p in img.pixels.iter_mut() {
            *p = (rng.gen_range_u64(0, 256)) as u8;
        }
        img
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Channel value at `(x, y)`, channel `c ∈ {0,1,2}`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, c: usize) -> u8 {
        self.pixels[(y * self.width + x) * 3 + c]
    }

    /// Sets channel value at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: u8) {
        self.pixels[(y * self.width + x) * 3 + c] = v;
    }

    /// Bilinear resize to `(new_w, new_h)`.
    pub fn resize(&self, new_w: usize, new_h: usize) -> Image {
        assert!(new_w > 0 && new_h > 0, "target must be non-empty");
        let mut out = Image::new(new_w, new_h);
        // Source taps and weight of output coordinate `i` along an axis
        // scaled by `s`. The saturating cast floors the non-negative
        // coordinates and clamps the negative ones to 0, exactly as
        // `floor().max(0.0)` would.
        let taps = |i: usize, s: f64, len: usize| {
            let f = (i as f64 + 0.5) * s - 0.5;
            let lo = f as usize;
            (lo, (lo + 1).min(len - 1), (f - lo as f64).clamp(0.0, 1.0))
        };
        let sx = self.width as f64 / new_w as f64;
        let sy = self.height as f64 / new_h as f64;
        let columns: Vec<(usize, usize, f64)> = (0..new_w)
            .map(|x| {
                let (x0, x1, wx) = taps(x, sx, self.width);
                (3 * x0, 3 * x1, wx)
            })
            .collect();
        let row_len = 3 * self.width;
        for (y, out_row) in out.pixels.chunks_exact_mut(3 * new_w).enumerate() {
            let (y0, y1, wy) = taps(y, sy, self.height);
            let top_row = &self.pixels[y0 * row_len..][..row_len];
            let bottom_row = &self.pixels[y1 * row_len..][..row_len];
            for (px, &(x0, x1, wx)) in out_row.chunks_exact_mut(3).zip(&columns) {
                for (c, v) in px.iter_mut().enumerate() {
                    let tl = top_row[x0 + c] as f64;
                    let tr = top_row[x1 + c] as f64;
                    let bl = bottom_row[x0 + c] as f64;
                    let br = bottom_row[x1 + c] as f64;
                    let top = tl + (tr - tl) * wx;
                    let bottom = bl + (br - bl) * wx;
                    *v = round_u8(top + (bottom - top) * wy);
                }
            }
        }
        out
    }

    /// Alpha-blends `mark` onto the bottom-right corner.
    pub fn watermark(&mut self, mark: &Image, alpha: f64) {
        assert!((0.0..=1.0).contains(&alpha), "alpha out of range");
        let ox = self.width.saturating_sub(mark.width);
        let oy = self.height.saturating_sub(mark.height);
        for y in 0..mark.height.min(self.height) {
            for x in 0..mark.width.min(self.width) {
                for c in 0..3 {
                    let base = self.get(ox + x, oy + y, c) as f64;
                    let wm = mark.get(x, y, c) as f64;
                    self.set(
                        ox + x,
                        oy + y,
                        c,
                        round_u8(base * (1.0 - alpha) + wm * alpha),
                    );
                }
            }
        }
    }

    /// Mean pixel value (test/verification helper).
    pub fn mean(&self) -> f64 {
        self.pixels.iter().map(|p| *p as f64).sum::<f64>() / self.pixels.len() as f64
    }
}

/// `v.round() as u8` for every `f64`, without the libm call `round`
/// compiles to on baseline x86-64: `v - t` is exact for `t = v as u8`
/// whenever `v` lies in `[t, t + 1)`, and the saturating casts handle
/// negative, NaN and out-of-range values like `as u8` does.
#[inline]
fn round_u8(v: f64) -> u8 {
    let t = v as u8;
    // Branch-free: on random pixels the comparison is a coin toss.
    t.saturating_add(u8::from(v - f64::from(t) >= 0.5))
}

/// The step-wise image pipeline: resize each incoming synthetic image to
/// half size and watermark it.
pub struct ImagePipeline {
    rng: DetRng,
    source_size: (usize, usize),
    watermark: Image,
    processed: u64,
    last_mean: f64,
}

impl ImagePipeline {
    /// Creates a pipeline processing `width × height` synthetic images.
    pub fn new(width: usize, height: usize, seed: u64) -> Self {
        let rng = DetRng::seed_from_u64(seed);
        let mut watermark = Image::new(width / 8, height / 8);
        // A diagonal stripe pattern — content irrelevant, determinism not.
        for y in 0..watermark.height() {
            for x in 0..watermark.width() {
                let v = if (x + y) % 7 < 3 { 255 } else { 30 };
                for c in 0..3 {
                    watermark.set(x, y, c, v);
                }
            }
        }
        ImagePipeline {
            rng,
            source_size: (width, height),
            watermark,
            processed: 0,
            last_mean: 0.0,
        }
    }

    /// Processes one image; returns its mean pixel value after processing.
    pub fn step(&mut self) -> f64 {
        let (w, h) = self.source_size;
        let img = Image::synthetic(w, h, &mut self.rng);
        let mut resized = img.resize(w / 2, h / 2);
        resized.watermark(&self.watermark, 0.4);
        self.processed += 1;
        self.last_mean = resized.mean();
        self.last_mean
    }

    /// Images processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_dimensions() {
        let mut rng = DetRng::seed_from_u64(1);
        let img = Image::synthetic(64, 48, &mut rng);
        let out = img.resize(32, 24);
        assert_eq!((out.width(), out.height()), (32, 24));
    }

    #[test]
    fn resize_constant_image_stays_constant() {
        let mut img = Image::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                for c in 0..3 {
                    img.set(x, y, c, 100);
                }
            }
        }
        let out = img.resize(7, 5);
        for y in 0..5 {
            for x in 0..7 {
                assert_eq!(out.get(x, y, 0), 100);
            }
        }
    }

    #[test]
    fn resize_preserves_mean_approximately() {
        let mut rng = DetRng::seed_from_u64(2);
        let img = Image::synthetic(128, 128, &mut rng);
        let out = img.resize(64, 64);
        assert!((img.mean() - out.mean()).abs() < 3.0);
    }

    #[test]
    fn watermark_full_alpha_replaces_pixels() {
        let mut base = Image::new(8, 8);
        let mut mark = Image::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                for c in 0..3 {
                    mark.set(x, y, c, 200);
                }
            }
        }
        base.watermark(&mark, 1.0);
        assert_eq!(base.get(7, 7, 0), 200);
        assert_eq!(base.get(6, 6, 1), 200);
        assert_eq!(base.get(0, 0, 0), 0, "outside the mark untouched");
    }

    #[test]
    fn watermark_half_alpha_blends() {
        let mut base = Image::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                for c in 0..3 {
                    base.set(x, y, c, 100);
                }
            }
        }
        let mut mark = Image::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                for c in 0..3 {
                    mark.set(x, y, c, 200);
                }
            }
        }
        base.watermark(&mark, 0.5);
        assert_eq!(base.get(0, 0, 0), 150);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn bad_alpha_panics() {
        let mut img = Image::new(2, 2);
        let mark = Image::new(1, 1);
        img.watermark(&mark, 1.5);
    }

    #[test]
    fn pipeline_steps_are_deterministic() {
        let run = || {
            let mut p = ImagePipeline::new(64, 64, 77);
            (p.step(), p.step(), p.step())
        };
        assert_eq!(run(), run());
        let mut p = ImagePipeline::new(64, 64, 77);
        p.step();
        p.step();
        assert_eq!(p.processed(), 2);
    }
}
