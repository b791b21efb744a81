"""Deterministic geometry, losses, metrics and token routing for complete
4D scene reconstruction, verified against built-in synthetic-scene oracles."""

from .geometry import (SE3, SIM3, CameraParams, DepthMap, PointMap,
                       camera_decode, camera_encode, intrinsics, se3_apply,
                       se3_compose, se3_invert, sim3_apply, unproject)
from .lifting import ClipBoundary, classify_dynamic, split_clips
from .losses import (LossConfig, LossValue, camera_loss, depth_loss,
                     finite_diff_check, focal_weight, point_loss,
                     spatial_gradient, total_loss)
from .metrics import (DepthMetrics, PoseMetrics, ReconMetrics, TrackMetrics,
                      accuracy_completion, apd_epe, depth_metrics,
                      downsample_random, estimate_normals, median_scale_align,
                      nn_distances, pose_metrics, recon_metrics,
                      select_queries, umeyama_sim3)
from .synth import (SceneObject, SceneSpec, SequenceDataset, TrajectorySet,
                    complete_cloud, generate, oracle_aggregate,
                    tracks_from_aggregation)
from .transformer import (AggregationFormer, ForwardResult, FrameTokens,
                          ModelConfig, TokenBank, assemble, attention_layer,
                          patchify)

__version__ = "0.1.0"
