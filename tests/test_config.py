import json

import numpy as np
import pytest

from actdock.config import (
    CONFIG_FORMAT_VERSION,
    ConfigError,
    EvalConfig,
    RunConfig,
    default_run_config,
    load_run_config,
    section_dict,
)


def base(**extra):
    d = {"format_version": CONFIG_FORMAT_VERSION}
    d.update(extra)
    return d


class TestDefaults:
    def test_default_config_validates(self):
        cfg = default_run_config()
        assert cfg.seed == 0
        assert cfg.policy.image_height == cfg.camera.height
        assert cfg.policy.action_scale == (15.0,) * 3 + (1.0,) * 3

    def test_minimal_document(self):
        cfg = load_run_config(base())
        assert cfg.sim.mass == 100.0


class TestSources:
    def test_json_string(self):
        cfg = load_run_config(json.dumps(base(seed=9)))
        assert cfg.seed == 9

    def test_file_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base(sim={"mass": 50.0})), encoding="utf-8")
        assert load_run_config(path).sim.mass == 50.0

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="root"):
            load_run_config(path)


class TestVersionAndKeys:
    def test_missing_version(self):
        with pytest.raises(ConfigError, match="format_version"):
            load_run_config({})

    def test_wrong_version(self):
        with pytest.raises(ConfigError, match="format_version"):
            load_run_config({"format_version": 2})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'simulation'"):
            load_run_config(base(simulation={}))

    def test_unknown_section_key_dotted(self):
        with pytest.raises(ConfigError, match="'sim.masss'"):
            load_run_config(base(sim={"masss": 10}))

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="'sim'"):
            load_run_config(base(sim=5))


class TestCoercions:
    def test_numbers_and_tuples(self):
        cfg = load_run_config(base(
            sim={"t_max": 10, "l_max": 2},
            policy={"backbone_channels": [4, 8, 16], "d_model": 64,
                    "n_heads": 4},
        ))
        assert cfg.sim.t_max == 10.0 and isinstance(cfg.sim.t_max, float)
        assert cfg.policy.backbone_channels == (4, 8, 16)
        # action_scale follows the overridden actuator bounds
        assert cfg.policy.action_scale == (10.0,) * 3 + (2.0,) * 3

    def test_inertia_diagonal_shorthand(self):
        cfg = load_run_config(base(sim={"inertia": [40.0, 41.0, 30.0]}))
        np.testing.assert_array_equal(cfg.sim.inertia,
                                      np.diag([40.0, 41.0, 30.0]))

    def test_inertia_full_matrix(self):
        m = [[40.0, 0, 0], [0, 41.0, 0], [0, 0, 30.0]]
        cfg = load_run_config(base(sim={"inertia": m}))
        np.testing.assert_array_equal(cfg.sim.inertia, np.array(m))

    @pytest.mark.parametrize("key, value", [
        ("backbone_channels", ["a", 8, 16]),
        ("backbone_channels", [4, 8.5, 16]),
        ("action_scale", ["a", 15, 15, 1, 1, 1]),
        ("action_scale", ["15", 15, 15, 1, 1, 1]),
    ])
    def test_tuple_elements_checked(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for 'policy.{key}'"):
            load_run_config(base(policy={key: value}))

    def test_non_integer_rejected_for_int_field(self):
        with pytest.raises(ConfigError, match="sim.horizon"):
            load_run_config(base(sim={"horizon": 2.5}))

    @pytest.mark.parametrize("value", ["12", True])
    def test_float_field_needs_a_number(self, value):
        with pytest.raises(ConfigError, match="bad value for 'sim.t_max'"):
            load_run_config(base(sim={"t_max": value}))

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ConfigError, match="seed"):
            load_run_config(base(seed=True))

    def test_camera_resize_propagates_to_policy(self):
        cfg = load_run_config(base(camera={"width": 32, "height": 24,
                                           "cx": 16.0, "cy": 12.0}))
        assert (cfg.policy.image_height, cfg.policy.image_width) == (24, 32)


class TestCrossChecks:
    def test_policy_image_mismatch(self):
        with pytest.raises(ConfigError, match="image size"):
            load_run_config(base(policy={"image_height": 8, "image_width": 8}))

    def test_action_scale_mismatch(self):
        with pytest.raises(ConfigError, match="action_scale"):
            load_run_config(base(policy={"action_scale": [1, 1, 1, 1, 1, 1]}))

    def test_section_validation_wrapped(self):
        with pytest.raises(ConfigError, match="sim.mass"):
            load_run_config(base(sim={"mass": -1.0}))
        with pytest.raises(ConfigError, match="eval.mode"):
            load_run_config(base(eval={"mode": "always"}))

    def test_eval_config_validation(self):
        with pytest.raises(ValueError, match="n_episodes"):
            EvalConfig(n_episodes=0).validate()
        with pytest.raises(ValueError, match="ensemble_decay"):
            EvalConfig(ensemble_decay=-0.1).validate()
        with pytest.raises(ValueError, match="success_radii"):
            EvalConfig(success_radii=(0.8, -1.0)).validate()


class TestSectionDict:
    def test_json_safe(self):
        cfg = RunConfig()
        d = section_dict(cfg.sim)
        json.dumps(d)  # must not raise
        assert d["inertia"] == np.diag([40.0, 40.0, 30.0]).tolist()
        d2 = section_dict(cfg.policy)
        assert d2["backbone_channels"] == list(cfg.policy.backbone_channels)
