"""Synthetic detection + tracking substrate ("Faster R-CNN + Deep SORT").

The paper's first layer turns raw frames into the structured relation
``VR(fid, id, class)`` using Faster R-CNN detections tracked by Deep
SORT.  Offline we reproduce the layer's *behaviour*: a detector that
misses geometrically occluded and randomly dropped objects, and a
greedy-IoU tracker with motion prediction and max-age track management
that assigns persistent ids — including the characteristic failure
modes (occlusion gaps inside a track, id churn after long occlusion)
that the paper's temporal query semantics are designed to absorb.
"""
