//! Ternary Weight Network conv layers (LeNet, VGG-13, VGG-16) — §7.1.
//!
//! Convolutions lower to GEMM via im2col: `M = out_h·out_w`,
//! `K = in_ch·kh·kw`, `N = out_ch`. These shapes drive the Fig. 18
//! full-workload comparison.

use crate::llama::GemmShape;

/// Conv layer descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayer {
    /// Layer label.
    pub name: &'static str,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel height/width (square).
    pub k: usize,
    /// Output feature-map height/width (square, after padding/stride).
    pub out_hw: usize,
}

impl ConvLayer {
    /// The im2col GEMM equivalent.
    #[must_use]
    pub fn gemm(&self) -> GemmShape {
        GemmShape {
            id: self.name,
            model: "conv",
            m: self.out_hw * self.out_hw,
            n: self.out_ch,
            k: self.in_ch * self.k * self.k,
        }
    }
}

/// LeNet-5 conv layers (28×28 MNIST input).
#[must_use]
pub fn lenet() -> Vec<ConvLayer> {
    vec![
        ConvLayer {
            name: "conv1",
            in_ch: 1,
            out_ch: 6,
            k: 5,
            out_hw: 28,
        },
        ConvLayer {
            name: "conv2",
            in_ch: 6,
            out_ch: 16,
            k: 5,
            out_hw: 10,
        },
    ]
}

/// VGG-13 conv layers (224×224 ImageNet input).
#[must_use]
pub fn vgg13() -> Vec<ConvLayer> {
    vec![
        ConvLayer {
            name: "c1_1",
            in_ch: 3,
            out_ch: 64,
            k: 3,
            out_hw: 224,
        },
        ConvLayer {
            name: "c1_2",
            in_ch: 64,
            out_ch: 64,
            k: 3,
            out_hw: 224,
        },
        ConvLayer {
            name: "c2_1",
            in_ch: 64,
            out_ch: 128,
            k: 3,
            out_hw: 112,
        },
        ConvLayer {
            name: "c2_2",
            in_ch: 128,
            out_ch: 128,
            k: 3,
            out_hw: 112,
        },
        ConvLayer {
            name: "c3_1",
            in_ch: 128,
            out_ch: 256,
            k: 3,
            out_hw: 56,
        },
        ConvLayer {
            name: "c3_2",
            in_ch: 256,
            out_ch: 256,
            k: 3,
            out_hw: 56,
        },
        ConvLayer {
            name: "c4_1",
            in_ch: 256,
            out_ch: 512,
            k: 3,
            out_hw: 28,
        },
        ConvLayer {
            name: "c4_2",
            in_ch: 512,
            out_ch: 512,
            k: 3,
            out_hw: 28,
        },
        ConvLayer {
            name: "c5_1",
            in_ch: 512,
            out_ch: 512,
            k: 3,
            out_hw: 14,
        },
        ConvLayer {
            name: "c5_2",
            in_ch: 512,
            out_ch: 512,
            k: 3,
            out_hw: 14,
        },
    ]
}

/// VGG-16 conv layers.
#[must_use]
pub fn vgg16() -> Vec<ConvLayer> {
    let mut layers = vgg13();
    layers.insert(
        6,
        ConvLayer {
            name: "c3_3",
            in_ch: 256,
            out_ch: 256,
            k: 3,
            out_hw: 56,
        },
    );
    layers.insert(
        9,
        ConvLayer {
            name: "c4_3",
            in_ch: 512,
            out_ch: 512,
            k: 3,
            out_hw: 28,
        },
    );
    layers.push(ConvLayer {
        name: "c5_3",
        in_ch: 512,
        out_ch: 512,
        k: 3,
        out_hw: 14,
    });
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts() {
        assert_eq!(lenet().len(), 2);
        assert_eq!(vgg13().len(), 10);
        assert_eq!(vgg16().len(), 13);
    }

    #[test]
    fn lenet_conv1_gemm() {
        let g = lenet()[0].gemm();
        assert_eq!((g.m, g.n, g.k), (784, 6, 25));
    }

    #[test]
    fn vgg16_is_heavier_than_vgg13() {
        let ops13: u64 = vgg13().iter().map(|l| l.gemm().useful_ops()).sum();
        let ops16: u64 = vgg16().iter().map(|l| l.gemm().useful_ops()).sum();
        assert!(ops16 > ops13);
    }
}
